package migrate

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
	"vulcan/internal/tlb"
)

// refMigrateSync is MigrateSync as it was before pages stayed mapped
// until commit: staging unmaps every page, and the commit reinstalls
// the old entry of a move that finds no frame. FuzzMigrateSync holds the
// engine to it, batch by batch.
func refMigrateSync(e *Engine, moves []Move) Result {
	if cap(e.outcomes) < len(moves) {
		e.outcomes = make([]Outcome, len(moves))
	}
	e.outcomes = e.outcomes[:len(moves)]
	clear(e.outcomes)
	res := Result{Outcomes: e.outcomes}
	e.batchSeq++
	for i := range e.scopeBits {
		e.scopeBits[i] = 0
	}
	e.batch = e.batch[:0]
	attempted := 0
	splitCycles := 0.0
	for i, mv := range moves {
		pte, ok := e.cfg.Table.Lookup(mv.VP)
		if !ok {
			res.Outcomes[i] = NotMapped
			res.Failed++
			continue
		}
		if pte.Frame().Tier == mv.To {
			res.Outcomes[i] = AlreadyThere
			continue
		}
		if e.cfg.Inject != nil && e.cfg.Inject.MigrationFails(e.cfg.Owner, uint64(mv.VP), e.batchSeq) {
			res.Outcomes[i] = Busy
			res.Busy++
			if e.cfg.OnBusy != nil {
				e.cfg.OnBusy(mv)
			}
			continue
		}
		if e.cfg.PreMigrate != nil {
			splitCycles += e.cfg.PreMigrate(mv.VP)
		}
		attempted++
		if e.cfg.TargetedShootdown {
			e.addScope(mv.VP)
		}
		old, _ := e.cfg.Table.Unmap(mv.VP)
		e.batch = append(e.batch, staged{idx: i, vp: mv.VP, old: old, to: mv.To})
	}
	if !e.cfg.TargetedShootdown && attempted > 0 {
		for tid := 0; tid < e.cfg.ProcessThreads; tid++ {
			e.scopeBits[tid>>6] |= 1 << (tid & 63)
		}
	}
	e.scopeList = e.scopeList[:0]
	for w, word := range e.scopeBits {
		for ; word != 0; word &= word - 1 {
			e.scopeList = append(e.scopeList, w<<6+bits.TrailingZeros64(word))
		}
	}
	if e.cfg.Invalidate != nil {
		for _, s := range e.batch {
			e.cfg.Invalidate(s.vp, e.scopeList)
		}
	}
	res.Targets = len(e.scopeList)
	copied := 0
	for _, s := range e.batch {
		outcome := refCommitPage(e, s.vp, s.old, s.to)
		res.Outcomes[s.idx] = outcome
		switch outcome {
		case Moved:
			copied++
			res.Moved++
		case Remapped:
			res.Remapped++
		case NoFrame:
			res.Failed++
		}
	}
	res.Breakdown = machine.Breakdown{
		Pages: attempted,
		Prep:  e.cfg.Cost.PrepCycles(e.cfg.Cpus, e.cfg.OptimizedPrep),
		Trap:  e.cfg.Cost.TrapCycles,
		Unmap: float64(attempted+res.Busy) * e.cfg.Cost.LockUnmapPerPage,
		TLB:   e.cfg.Cost.ShootdownCycles(attempted, res.Targets),
		Copy:  e.cfg.Cost.CopyCycles(copied),
		Remap: float64(attempted) * e.cfg.Cost.RemapPerPage,
		Split: splitCycles,
	}
	ipiExtra := 0.0
	if e.cfg.Inject != nil && attempted > 0 {
		if d := e.cfg.Inject.IPIDelayCycles(e.cfg.Owner, e.batchSeq); d > 0 {
			ipiExtra = d * float64(res.Targets)
			res.Breakdown.TLB += ipiExtra
			if e.cfg.OnIPIDelay != nil {
				e.cfg.OnIPIDelay(e.scopeList)
			}
		}
	}
	if attempted == 0 && res.Busy == 0 {
		res.Breakdown = machine.Breakdown{}
		ipiExtra = 0
	}
	e.chargeProf(res, attempted, ipiExtra)
	e.emitSync(res, attempted)
	return res
}

// refCommitPage is the old commit of a page staging had unmapped.
func refCommitPage(e *Engine, vp pagetable.VPage, old pagetable.PTE, to mem.TierID) Outcome {
	srcFrame := old.Frame()
	if e.cfg.Shadowing && to == mem.TierSlow {
		if !old.Dirty() {
			if shadow, ok := e.shadows.take(vp); ok {
				refInstall(e, vp, old.WithFrame(shadow).WithAccessed(false))
				e.cfg.Tiers.Free(srcFrame)
				return Remapped
			}
		} else if stale, ok := e.shadows.drop(vp); ok {
			e.cfg.Tiers.Free(stale)
		}
	}
	dst, ok := e.cfg.Tiers.Alloc(to)
	if !ok {
		refInstall(e, vp, old)
		return NoFrame
	}
	refInstall(e, vp, old.WithFrame(dst).WithAccessed(false).WithDirty(false))
	if e.cfg.Shadowing && to == mem.TierFast && srcFrame.Tier == mem.TierSlow {
		if prev, ok := e.shadows.drop(vp); ok {
			e.cfg.Tiers.Free(prev)
		}
		e.shadows.put(vp, srcFrame)
	} else {
		e.cfg.Tiers.Free(srcFrame)
	}
	return Moved
}

// refInstall is the old reinstall: the owner's thread, or thread 0 for
// a shared page, installs p and links its leaf.
func refInstall(e *Engine, vp pagetable.VPage, p pagetable.PTE) {
	tid := 0
	if owner := p.Owner(); owner != pagetable.OwnerShared {
		tid = int(owner)
	}
	if err := e.cfg.Table.Install(tid, vp, p); err != nil {
		panic(err)
	}
}

// syncSetup is the machine a FuzzMigrateSync input describes.
type syncSetup struct {
	threads   int
	fastPages int
	shadowing bool
	targeted  bool
	chaos     bool
	thp       bool // leaf 0 fully mapped and huge
	fillFast  bool // place pages in the fast tier until it is full
	seed      uint64
}

// syncHarness is one engine over its own tiers, table and per-thread
// TLBs, with a log of everything the engine's hooks saw.
type syncHarness struct {
	tiers  *mem.Tiers
	tbl    *pagetable.Replicated
	eng    *Engine
	tlbs   []*tlb.TLB
	vps    []pagetable.VPage // every page the setup mapped, ascending
	splits int
	log    []string // invalidations, busy moves and delayed acks, in order
}

// syncChaos fails a fixed pattern of pages and delays every third
// batch's acknowledgments: pure in (page, batch), as Chaos requires.
type syncChaos struct{}

func (syncChaos) MigrationFails(_ string, vp, batch uint64) bool { return (vp*31+batch*7)%11 == 0 }
func (syncChaos) IPIDelayCycles(_ string, batch uint64) float64 {
	if batch%3 == 0 {
		return 250
	}
	return 0
}

// newSyncHarness builds the machine s describes. Two harnesses built
// from one setup are identical.
func newSyncHarness(s syncSetup) *syncHarness {
	h := &syncHarness{
		tiers: mem.NewTiers([mem.NumTiers]mem.TierConfig{
			mem.TierFast: {Name: "fast", CapacityPages: s.fastPages, UnloadedLatency: 70, BandwidthGBs: 205},
			mem.TierSlow: {Name: "slow", CapacityPages: 1024, UnloadedLatency: 162, BandwidthGBs: 25},
		}),
		tbl: pagetable.NewReplicated(s.threads),
	}
	for t := 0; t < s.threads; t++ {
		h.tlbs = append(h.tlbs, tlb.New(64))
	}
	rng := sim.NewRNG(s.seed)
	// Leaf 0 (all of it under THP, most of it otherwise), a sparse leaf
	// at the top of the first L2 table, and a few pages under another
	// root slot.
	for vp := pagetable.VPage(0); vp < 512; vp++ {
		if s.thp || rng.Intn(4) != 0 {
			h.vps = append(h.vps, vp)
		}
	}
	for i := 0; i < 24; i++ {
		h.vps = append(h.vps, 511<<9|pagetable.VPage(rng.Intn(512)))
	}
	for i := 0; i < 8; i++ {
		h.vps = append(h.vps, 3<<27|pagetable.VPage(i*67))
	}
	slices.Sort(h.vps)
	h.vps = slices.Compact(h.vps)
	for _, vp := range h.vps {
		tier := mem.TierSlow
		if h.tiers.Fast().FreePages() > 0 && (s.fillFast || rng.Intn(2) == 0) {
			tier = mem.TierFast
		}
		f, _ := h.tiers.Alloc(tier)
		// Thread 0 never reaches the pages under the other root slot, so
		// a shared page there that finds no frame must link its leaf
		// into thread 0's tree, as the old reinstall did.
		tid, other := rng.Intn(s.threads), rng.Intn(s.threads)
		if vp>>27 != 0 && s.threads > 1 {
			tid, other = 1+rng.Intn(s.threads-1), 1+rng.Intn(s.threads-1)
		}
		if err := h.tbl.Map(tid, vp, pagetable.NewPTE(f, 0)); err != nil {
			panic(err)
		}
		// Some pages are touched by a second thread, which shares them
		// and links their leaf into its tree; some are written.
		if s.threads > 1 && rng.Intn(4) == 0 {
			h.tbl.Touch(other, vp, rng.Intn(2) == 0)
		}
		h.tlbs[rng.Intn(s.threads)].Access(vp)
	}
	if s.thp {
		if err := h.tbl.SetHuge(0); err != nil {
			panic(err)
		}
	}
	cfg := Config{
		Cost:              machine.DefaultCostModel(),
		Tiers:             h.tiers,
		Table:             h.tbl,
		Cpus:              16,
		ProcessThreads:    s.threads,
		TargetedShootdown: s.targeted,
		Shadowing:         s.shadowing,
		Invalidate: func(vp pagetable.VPage, threads []int) {
			for _, t := range threads {
				h.tlbs[t].Invalidate(vp)
			}
			h.log = append(h.log, fmt.Sprintf("inv %#x %v", uint64(vp), threads))
		},
		PreMigrate: func(vp pagetable.VPage) float64 {
			if h.tbl.SplitHuge(vp) {
				h.splits++
				return 5000
			}
			return 0
		},
		OnBusy: func(mv Move) { h.log = append(h.log, fmt.Sprintf("busy %#x", uint64(mv.VP))) },
		OnIPIDelay: func(targets []int) {
			h.log = append(h.log, fmt.Sprintf("delay %v", targets))
		},
	}
	if s.chaos {
		cfg.Inject = syncChaos{}
	}
	h.eng = NewEngine(cfg)
	return h
}

// state is everything a batch may change: the table's snapshot bytes
// and private-table count, the tiers' free stacks, the engine's shadows
// and batch number, and each thread's TLB counters.
func (h *syncHarness) state() []byte {
	var e checkpoint.Encoder
	h.tbl.Snapshot(&e)
	e.Int(h.tbl.TotalTables())
	e.Int(h.tbl.FastMapped())
	e.Int(h.tbl.HugeLeaves())
	h.tiers.Snapshot(&e)
	h.eng.Snapshot(&e)
	for _, t := range h.tlbs {
		st := t.Stats()
		e.U64(st.Hits)
		e.U64(st.Misses)
		e.U64(st.Invalidations)
		e.U64(st.DelayedAcks)
	}
	e.Int(h.splits)
	return e.Bytes()
}

// syncBytes reads a FuzzMigrateSync input, yielding zeros once it runs
// out.
type syncBytes []byte

func (b *syncBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// FuzzMigrateSync drives the engine and refMigrateSync, the old
// unmap-at-staging engine, through the same batches on two identical
// machines, and requires after every batch the same outcomes, Result,
// table bytes, free stacks, shadows, TLB counters and hook calls. The
// first three bytes choose the machine: threads and switches (shadowing,
// targeted shootdowns, injected faults, a huge leaf, a fast tier filled
// to the last frame), the fast tier's size and a placement seed. Each
// batch then takes a length byte and two bytes a move — a page (mapped
// or not) and a direction — and a byte of writes to run before it.
func FuzzMigrateSync(f *testing.F) {
	f.Add([]byte{0x00, 16, 1, 8, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{0x27, 40, 2, 20, 5, 1, 9, 0, 200, 1, 77, 1, 3, 0, 30, 1, 15, 1, 16, 8, 1, 2, 1, 4, 0, 9, 1})
	f.Add([]byte{0x5e, 4, 3, 30, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 1, 10, 1, 250, 1, 251, 1, 7, 30, 3, 0, 4, 0, 5, 0})
	f.Add([]byte{0x7f, 60, 9, 24, 100, 0, 101, 0, 102, 1, 103, 0, 104, 1, 200, 0, 201, 1, 255, 0, 12, 12, 100, 1, 101, 1, 102, 0})
	f.Add([]byte{0x13, 0, 4, 12, 250, 0, 251, 0, 252, 0, 253, 0, 254, 1, 255, 1, 6, 6, 250, 1, 251, 1, 252, 1})
	// Four threads, a fast tier of 54 frames, and a promotion of a shared
	// page under the other root slot that finds the tier full.
	f.Add([]byte("\x032D10000\xeb"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := syncBytes(data)
		flags := in.next()
		s := syncSetup{
			threads:   1 + int(flags&3),
			shadowing: flags&4 != 0,
			targeted:  flags&8 != 0,
			chaos:     flags&16 != 0,
			thp:       flags&32 != 0,
			fillFast:  flags&64 != 0,
			fastPages: 4 + int(in.next())%61,
			seed:      uint64(in.next()),
		}
		got, want := newSyncHarness(s), newSyncHarness(s)
		if !bytes.Equal(got.state(), want.state()) {
			t.Fatal("harnesses built from one setup differ")
		}
		pages := got.vps
		for batch := 0; batch < 6 && len(in) > 0; batch++ {
			// Writes dirty pages, so a later demotion drops a stale
			// shadow instead of remapping to it.
			for w := int(in.next()) % 8; w > 0; w-- {
				vp := pages[int(in.next())*7%len(pages)]
				got.tbl.Touch(0, vp, true)
				want.tbl.Touch(0, vp, true)
			}
			n := 1 + int(in.next())%32
			moves := make([]Move, 0, n)
			seen := map[pagetable.VPage]bool{}
			for i := 0; i < n; i++ {
				sel, dir := int(in.next()), in.next()
				vp := pages[sel*5%len(pages)]
				if sel >= 250 {
					vp = 2<<27 | pagetable.VPage(sel) // never mapped
				}
				if seen[vp] {
					continue // a batch names distinct pages
				}
				seen[vp] = true
				to := mem.TierSlow
				if dir&1 == 0 {
					to = mem.TierFast
				}
				moves = append(moves, Move{VP: vp, To: to})
			}
			g := got.eng.MigrateSync(moves)
			gOut := slices.Clone(g.Outcomes)
			w := refMigrateSync(want.eng, moves)
			if !slices.Equal(gOut, w.Outcomes) {
				t.Fatalf("batch %d %v: outcomes %v, reference %v", batch, moves, gOut, w.Outcomes)
			}
			type counts struct{ moved, remapped, failed, busy, targets int }
			if g.Breakdown != w.Breakdown ||
				(counts{g.Moved, g.Remapped, g.Failed, g.Busy, g.Targets} != counts{w.Moved, w.Remapped, w.Failed, w.Busy, w.Targets}) {
				t.Fatalf("batch %d %v: result %+v, reference %+v", batch, moves, g, w)
			}
			if got.eng.Shadows() != want.eng.Shadows() {
				t.Fatalf("batch %d: shadows %+v, reference %+v", batch, got.eng.Shadows(), want.eng.Shadows())
			}
			if !slices.Equal(got.log, want.log) {
				t.Fatalf("batch %d: hook calls\n%s\nreference\n%s", batch, strings.Join(got.log, "\n"), strings.Join(want.log, "\n"))
			}
			if !bytes.Equal(got.state(), want.state()) {
				t.Fatalf("batch %d %v: state differs from the reference", batch, moves)
			}
			if err := got.tbl.CheckMasks(); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
		}
	})
}

// TestMigrateSyncRepeatedPagePanics pins the distinct-pages
// precondition: a page named twice in one batch is committed twice, and
// the second commit finds the entry the first one installed, not the
// staged one. It must panic there rather than free the page's new frame
// a second time.
func TestMigrateSyncRepeatedPagePanics(t *testing.T) {
	e, _, _ := testEnv(t, 2, 4, nil)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "changed between staging and commit") {
			t.Fatalf("recovered %v, want the staged-entry panic", r)
		}
	}()
	e.MigrateSync([]Move{{VP: 1, To: mem.TierFast}, {VP: 1, To: mem.TierFast}})
}

// TestMigrateSyncNoFrameKeepsEntry pins the full-tier path: a move that
// finds no frame leaves its entry as it was — frame, owner and A/D bits
// — and links the leaf into thread 0's tree for a shared page, as the
// old reinstall did.
func TestMigrateSyncNoFrameKeepsEntry(t *testing.T) {
	e, rt, tiers := testEnvFast(t, 3, 8, 1, nil)
	rt.Touch(2, 5, true) // page 5 becomes shared and dirty; thread 2 links leaf 0
	if res := e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}}); res.Moved != 1 || tiers.Fast().FreePages() != 0 {
		t.Fatalf("setup: %+v, %d fast frames free", res, tiers.Fast().FreePages())
	}
	before, _ := rt.Lookup(5)
	tables := rt.TotalTables()
	res := e.MigrateSync([]Move{{VP: 5, To: mem.TierFast}})
	if res.Outcomes[0] != NoFrame || res.Failed != 1 {
		t.Fatalf("outcome %v, failed %d; want no-frame", res.Outcomes[0], res.Failed)
	}
	if after, ok := rt.Lookup(5); !ok || after != before {
		t.Fatalf("entry %v after a no-frame move, want %v", after, before)
	}
	if rt.TotalTables() != tables {
		t.Fatalf("tables %d → %d: thread 0 already linked leaf 0", tables, rt.TotalTables())
	}
	if err := rt.CheckMasks(); err != nil {
		t.Fatal(err)
	}

	// A shared page whose leaf thread 0 never linked: the failed move
	// links it, which widens the page's shootdown scope to thread 0.
	far := pagetable.VPage(1) << 27
	f, _ := tiers.Alloc(mem.TierSlow)
	if err := rt.Map(1, far, pagetable.NewPTE(f, 0)); err != nil {
		t.Fatal(err)
	}
	rt.Touch(2, far, false)
	if scope := rt.AppendShootdownScope(nil, far); !slices.Equal(scope, []int{1, 2}) {
		t.Fatalf("setup: scope %v, want [1 2]", scope)
	}
	if res := e.MigrateSync([]Move{{VP: far, To: mem.TierFast}}); res.Outcomes[0] != NoFrame {
		t.Fatalf("outcome %v, want no-frame", res.Outcomes[0])
	}
	if scope := rt.AppendShootdownScope(nil, far); !slices.Equal(scope, []int{0, 1, 2}) {
		t.Fatalf("scope %v after a no-frame move, want [0 1 2]", scope)
	}
}
