package metrics

import (
	"strings"
	"testing"

	"vulcan/internal/sim"
)

func TestSeriesAddAndQuery(t *testing.T) {
	s := NewSeries("fthr")
	s.Add(0, 0.5)
	s.Add(100, 0.7)
	s.Add(100, 0.7) // equal timestamps allowed
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if p := s.At(1); p.T != 100 || p.V != 0.7 {
		t.Fatalf("At(1) = %+v", p)
	}
	if last := s.At(s.Len() - 1); last.T != 100 {
		t.Fatalf("last point = %+v", last)
	}
	if m := s.Mean(); m < 0.63 || m > 0.64 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("x")
	if s.Len() != 0 {
		t.Fatal("empty series has points")
	}
	if s.Mean() != 0 {
		t.Fatal("empty Mean nonzero")
	}
}

func TestSeriesBackwardsTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	s := NewSeries("x")
	s.Add(100, 1)
	s.Add(50, 2)
}

func TestRecorder(t *testing.T) {
	var c sim.Clock
	r := NewRecorder(&c)
	r.Record("a", 1)
	c.Advance(10)
	r.Record("b", 2)
	r.Record("a", 3)
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	if r.Series("a").Len() != 2 {
		t.Fatal("series a wrong length")
	}
	a := r.Series("a")
	if last := a.At(a.Len() - 1); last.T != 10 || last.V != 3 {
		t.Fatalf("series a last = %+v", last)
	}
}

func TestRecorderWriteCSV(t *testing.T) {
	var c sim.Clock
	r := NewRecorder(&c)
	r.Record("alloc", 42)
	c.Advance(5)
	r.Record("alloc", 43)
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "series,time_ns,value\nalloc,0,42\nalloc,5,43\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}
