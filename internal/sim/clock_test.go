package sim

import "testing"

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %d, want 0", c.Now())
	}
	c.Advance(1500)
	if c.Now() != 1500 {
		t.Fatalf("Now = %d, want 1500", c.Now())
	}
	c.Advance(500)
	if c.Now() != 2000 {
		t.Fatalf("Now = %d, want 2000", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.50µs"},
		{2_500_000, "2.50ms"},
		{3 * Second, "3.000s"},
		{-500, "-500ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestCycleConversionRoundTrip(t *testing.T) {
	d := CyclesToDuration(300_000) // 100µs at 3 GHz
	if d != 100*Microsecond {
		t.Fatalf("CyclesToDuration(300000) = %v, want 100µs", d)
	}
	if got := float64(d) * CyclesPerNs; got != 300_000 {
		t.Fatalf("100µs = %v cycles, want 300000", got)
	}
}

func TestDurationSeconds(t *testing.T) {
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds = %v, want 0.25", got)
	}
}
