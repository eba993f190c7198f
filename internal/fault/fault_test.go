package fault

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string // substring of the error; "" = valid
	}{
		{"empty", Plan{}, ""},
		{"good", Plan{Rules: []Rule{{Kind: MigrationFail, Rate: 0.1}}}, ""},
		{"bad kind", Plan{Rules: []Rule{{Kind: NumKinds, Rate: 0.1}}}, "unknown kind"},
		{"rate high", Plan{Rules: []Rule{{Kind: PEBSDrop, Rate: 1.5}}}, "outside [0,1]"},
		{"rate neg", Plan{Rules: []Rule{{Kind: PEBSDrop, Rate: -0.1}}}, "outside [0,1]"},
		{"sev neg", Plan{Rules: []Rule{{Kind: IPIDelay, Rate: 0.1, Severity: -1}}}, "negative severity"},
		{"bad tier scope", Plan{Rules: []Rule{{Kind: LatencySpike, Scope: "mid", Rate: 0.1}}}, "not a tier"},
		{"tier scope ok", Plan{Rules: []Rule{{Kind: LatencySpike, Scope: "slow", Rate: 0.1, Severity: 0.5}}}, ""},
		{"frac sev high", Plan{Rules: []Rule{{Kind: BandwidthDegrade, Rate: 0.1, Severity: 1.5}}}, "outside [0,1]"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if got := NumKinds.String(); !strings.HasPrefix(got, "kind(") {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestParseProfile(t *testing.T) {
	for _, name := range []string{"", "off", "OFF"} {
		if p, err := ParseProfile(name); p != nil || err != nil {
			t.Errorf("ParseProfile(%q) = %v, %v; want nil, nil", name, p, err)
		}
	}
	var prev float64
	for _, name := range []string{"light", "moderate", "heavy"} {
		p, err := ParseProfile(name)
		if err != nil || p == nil {
			t.Fatalf("ParseProfile(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", name, err)
		}
		if !p.Armed() {
			t.Errorf("profile %q not armed", name)
		}
		rate := p.Rules[0].Rate
		if rate <= prev {
			t.Errorf("profile %q rate %v not above previous %v", name, rate, prev)
		}
		prev = rate
	}
	if _, err := ParseProfile("catastrophic"); err == nil || !strings.Contains(err.Error(), "unknown profile") {
		t.Errorf("unknown profile error = %v", err)
	}
}

func TestPlanAtRate(t *testing.T) {
	if PlanAtRate(0) != nil || PlanAtRate(-1) != nil {
		t.Error("rate <= 0 must produce a nil plan")
	}
	p := PlanAtRate(0.05)
	if err := p.Validate(); err != nil {
		t.Fatalf("canonical plan invalid: %v", err)
	}
	armed := map[Kind]bool{}
	for _, r := range p.Rules {
		armed[r.Kind] = true
	}
	for k := Kind(0); k < NumKinds; k++ {
		if !armed[k] {
			t.Errorf("canonical plan leaves %s unarmed", k)
		}
	}
}

func TestArmed(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Armed() {
		t.Error("nil plan armed")
	}
	if (&Plan{}).Armed() {
		t.Error("empty plan armed")
	}
	if (&Plan{Rules: []Rule{{Kind: PEBSDrop, Rate: 0}}}).Armed() {
		t.Error("zero-rate plan armed")
	}
	if !(&Plan{Rules: []Rule{{Kind: PEBSDrop, Rate: 0.1}}}).Armed() {
		t.Error("armed plan not armed")
	}
}
