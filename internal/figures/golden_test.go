package figures

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"vulcan/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files from current output")

// TestFiguresGolden pins the data behind every figure and table — the
// CFI, FTHR, bandwidth and cycle numbers the paper's claims rest on — at
// the arguments the shape tests use. encoding/json writes each float64
// in its shortest round-trip form and sorts map keys, so equal bytes
// mean bit-identical values. A refactor or perf change must leave this
// file untouched; regenerate it with
//
//	go test ./internal/figures -run TestFiguresGolden -update-golden
//
// only when a change is meant to move a figure, and say why. The golden
// was recorded on linux/amd64: architectures that fuse multiply-adds
// (arm64) may round differently.
func TestFiguresGolden(t *testing.T) {
	figs := map[string]any{
		"fig1":      Fig1(40*sim.Second, 16, 3),
		"fig2":      Fig2(),
		"fig3":      Fig3(),
		"fig4":      Fig4(7),
		"fig6":      Fig6(),
		"fig7":      Fig7(),
		"fig8":      Fig8([]string{"memtis", "vulcan"}, 2),
		"fig9":      Fig9(150*sim.Second, 8, 2),
		"fig10":     Fig10(2, 60*sim.Second, 8),
		"figR":      FigR(10*sim.Second, 8, 3, []float64{0, 0.1}),
		"figF":      FigF(6, []int{2, 3}, 3),
		"table1":    Table1(),
		"table2":    Table2(),
		"ablations": Ablations(20*sim.Second, 16, 5),
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", " ")
	if err := enc.Encode(figs); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "figures_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Name the figures that moved rather than dumping the whole file.
	var gotFigs, wantFigs map[string]json.RawMessage
	if err := json.Unmarshal(got, &gotFigs); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantFigs); err != nil {
		t.Fatalf("golden file unreadable: %v", err)
	}
	names := make([]string, 0, len(figs))
	for name := range figs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !bytes.Equal(gotFigs[name], wantFigs[name]) {
			t.Errorf("%s drifted from %s", name, path)
		}
	}
	t.Errorf("figure data drifted from %s; if the change is intended, regenerate with -update-golden", path)
}
