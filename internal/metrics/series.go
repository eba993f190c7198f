package metrics

import (
	"fmt"
	"io"

	"vulcan/internal/sim"
)

// Point is one time-stamped observation.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only named time series, the backing store for every
// "x over time" figure (1, 9).
type Series struct {
	Name   string
	points []Point
}

// NewSeries creates an empty series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends an observation; timestamps must be non-decreasing.
func (s *Series) Add(t sim.Time, v float64) {
	if n := len(s.points); n > 0 && s.points[n-1].T > t {
		panic(fmt.Sprintf("metrics: series %q time going backwards", s.Name))
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.points) }

// At returns point i.
func (s *Series) At(i int) Point { return s.points[i] }

// Mean returns the average of the values.
func (s *Series) Mean() float64 {
	if len(s.points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.points {
		sum += p.V
	}
	return sum / float64(len(s.points))
}

// Recorder is a set of named time series sharing a clock.
type Recorder struct {
	clock  *sim.Clock
	series map[string]*Series
	order  []string
}

// NewRecorder creates a recorder reading timestamps from clock.
func NewRecorder(clock *sim.Clock) *Recorder {
	return &Recorder{clock: clock, series: make(map[string]*Series)}
}

// Series returns (creating on first use) the series with the given name.
func (r *Recorder) Series(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = NewSeries(name)
		r.series[name] = s
		r.order = append(r.order, name)
	}
	return s
}

// Record appends v to the named series at the current simulated time.
func (r *Recorder) Record(name string, v float64) {
	r.Series(name).Add(r.clock.Now(), v)
}

// Names returns the series names in creation order.
func (r *Recorder) Names() []string {
	return append([]string(nil), r.order...)
}

// WriteCSV emits every series as long-format CSV rows
// (series,time_ns,value), sorted by creation order then time.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "series,time_ns,value"); err != nil {
		return err
	}
	for _, name := range r.Names() {
		s := r.series[name]
		for _, p := range s.points {
			if _, err := fmt.Fprintf(w, "%s,%d,%.6g\n", name, int64(p.T), p.V); err != nil {
				return err
			}
		}
	}
	return nil
}
