package prof

import (
	"bytes"
	"strings"
	"testing"

	"vulcan/internal/sim"
)

// build constructs a small two-plane profile: two epochs of one app's
// budget split across use-plane accounts plus mechanism-plane work.
func build() *Profiler {
	p := New()
	c := &sim.Clock{}
	p.BindClock(c)

	compute := p.Account("system/compute", "memcached", "", false)
	stall := p.Account("system/stall", "memcached", "", false)
	fast := p.Account("machine/access", "memcached", "fast", false)
	slow := p.Account("machine/access", "memcached", "slow", false)
	idle := p.Account("system/idle", "memcached", "", false)
	copyP := p.Account("migrate/sync/copy", "memcached", "", true)
	shoot := p.Account("tlb/shootdown", "memcached", "", true)

	p.AddBudget(1000)
	compute.ChargeN(300, 10)
	fast.ChargeN(350, 7)
	slow.ChargeN(200, 3)
	stall.Charge(100)
	idle.Charge(50)
	copyP.ChargeN(80, 16)
	shoot.ChargeN(20, 4)
	p.FlushEpoch(0)

	c.Advance(sim.Millisecond)
	p.AddBudget(1000)
	compute.ChargeN(500, 12)
	fast.ChargeN(400, 9)
	idle.Charge(100)
	p.FlushEpoch(1)
	return p
}

func TestTotalsReconcile(t *testing.T) {
	p := build()
	total, attributed, unattr := p.Totals()
	// total = 2000 budget + 100 mech; attributed = sum of all charges.
	if total != 2100 {
		t.Errorf("total = %v, want 2100", total)
	}
	if attributed != 2100 {
		t.Errorf("attributed = %v, want 2100", attributed)
	}
	if unattr != 0 {
		t.Errorf("unattributed = %v, want 0", unattr)
	}
}

func TestFlushRowsOrderedAndClosed(t *testing.T) {
	p := build()
	rows := p.Rows()
	// Epoch 0: 7 account rows + total + unattributed; epoch 1: 3 + 2
	// (epoch 1 omits the zero-delta accounts: slow, stall, copy and
	// shootdown).
	var e0, e1 []Row
	for _, r := range rows {
		switch r.Epoch {
		case 0:
			e0 = append(e0, r)
		case 1:
			e1 = append(e1, r)
		}
	}
	if len(e0) != 9 || len(e1) != 5 {
		t.Fatalf("row counts = %d, %d; want 9, 5", len(e0), len(e1))
	}
	// Account rows sorted by (path, app, tier); closing rows last.
	for i := 0; i+1 < len(e0)-2; i++ {
		a, b := e0[i], e0[i+1]
		if a.Path > b.Path || (a.Path == b.Path && a.Tier > b.Tier) {
			t.Errorf("epoch 0 rows out of order: %q/%q before %q/%q", a.Path, a.Tier, b.Path, b.Tier)
		}
	}
	if e0[len(e0)-2].Path != TotalPath || e0[len(e0)-1].Path != UnattributedPath {
		t.Errorf("epoch 0 closing rows = %q, %q", e0[len(e0)-2].Path, e0[len(e0)-1].Path)
	}
	if e0[len(e0)-2].Cycles != 1100 { // 1000 budget + 100 mech
		t.Errorf("epoch 0 total = %v, want 1100", e0[len(e0)-2].Cycles)
	}
	if e1[0].T != sim.Time(sim.Millisecond) {
		t.Errorf("epoch 1 rows stamped %d, want clock time %d", e1[0].T, sim.Millisecond)
	}
}

func TestAccountIdentityAndSorting(t *testing.T) {
	p := New()
	b := p.Account("z/b", "app2", "", false)
	a := p.Account("a/x", "app1", "slow", false)
	a2 := p.Account("a/x", "app1", "fast", false)
	if got := p.Account("z/b", "app2", "", false); got != b {
		t.Error("same identity returned a different account")
	}
	accts := p.Accounts()
	if len(accts) != 3 || accts[0] != a2 || accts[1] != a || accts[2] != b {
		t.Errorf("accounts not in (path, app, tier) order: %v", accts)
	}
}

func TestNilProfilerSafe(t *testing.T) {
	var p *Profiler
	a := p.Account("x/y", "app", "", false)
	if a != nil {
		t.Fatal("nil profiler returned non-nil account")
	}
	a.Charge(5)
	a.ChargeN(5, 2)
	p.AddBudget(10)
	p.BindClock(nil)
	p.FlushEpoch(0)
	if ea := NewEngineAccounts(p, "app"); ea != nil {
		t.Error("nil profiler yielded engine accounts")
	}
	total, attributed, unattr := p.Totals()
	if total != 0 || attributed != 0 || unattr != 0 {
		t.Error("nil profiler reported non-zero totals")
	}
	if p.Rows() != nil || p.Accounts() != nil {
		t.Error("nil profiler reported rows")
	}
	var buf bytes.Buffer
	if err := p.WriteBreakdownCSV(&buf); err != nil {
		t.Fatalf("nil WriteBreakdownCSV: %v", err)
	}
	if buf.String() != "epoch,t_ns,path,app,tier,cycles,count\n" {
		t.Errorf("nil CSV = %q", buf.String())
	}
}

func TestBreakdownCSV(t *testing.T) {
	p := build()
	var buf bytes.Buffer
	if err := p.WriteBreakdownCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if lines[0] != "epoch,t_ns,path,app,tier,cycles,count" {
		t.Errorf("header = %q", lines[0])
	}
	want := "0,0,machine/access,memcached,fast,350,7"
	found := false
	for _, l := range lines {
		if l == want {
			found = true
		}
	}
	if !found {
		t.Errorf("CSV missing row %q in:\n%s", want, buf.String())
	}
	// Determinism: same profile renders the same bytes.
	var buf2 bytes.Buffer
	build().WriteBreakdownCSV(&buf2)
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("breakdown CSV not byte-identical across rebuilds")
	}
}
