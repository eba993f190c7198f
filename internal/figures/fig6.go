package figures

import (
	"fmt"
	"strings"

	"vulcan/internal/lab"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
)

// Fig6Row quantifies one thread-count point of the paper's Figure 6
// comparison: process-wide shared tables vs. Vulcan's per-thread upper
// levels with shared leaves vs. RadixVM-style full replication.
type Fig6Row struct {
	Threads int
	// Page-table pages (4KiB each) for a fixed mapped footprint.
	SharedTables     int
	VulcanTables     int
	FullTables       int
	VulcanOverheadPc float64 // vs shared, percent
	FullOverheadPc   float64
	// PTE stores needed to install the mapping (write amplification).
	VulcanPTEWrites uint64
	FullPTEWrites   uint64
}

// Fig6MappedPages is the footprint used for the comparison (256MB).
const Fig6MappedPages = 65536

// Fig6 generates the page-table replication cost comparison behind the
// paper's Figure 6: per-thread upper levels with shared leaves cost a few
// extra tables per thread, while fully replicated tables multiply the
// entire structure (and every PTE store) by the thread count.
func Fig6() []Fig6Row {
	// Each thread-count point builds its own tables from scratch; the
	// points are independent, so fan them out on the lab pool.
	threadCounts := []int{2, 4, 8, 16, 32}
	return lab.Map(0, len(threadCounts), func(i int) Fig6Row {
		threads := threadCounts[i]
		vulcanT := pagetable.NewReplicated(threads)
		for vp := pagetable.VPage(0); vp < Fig6MappedPages; vp++ {
			pte := pagetable.NewPTE(mem.Frame{Tier: mem.TierFast, Index: uint32(vp)}, 0)
			if err := vulcanT.Map(int(vp)%threads, vp, pte); err != nil {
				panic(err)
			}
		}
		// The process-wide view shares Vulcan's leaves and holds exactly
		// the tables one shared process table would for this mapping.
		// Full replication (RadixVM-style) needs no simulation: every
		// per-thread replica and the canonical tree hold the same mapping
		// as the shared table, so it costs threads+1 copies of its tables,
		// and every PTE store is broadcast to each of the threads' replicas.
		s, v := vulcanT.TableCount(), vulcanT.TotalTables()
		f := (threads + 1) * s
		return Fig6Row{
			Threads:          threads,
			SharedTables:     s,
			VulcanTables:     v,
			FullTables:       f,
			VulcanOverheadPc: 100 * (float64(v)/float64(s) - 1),
			FullOverheadPc:   100 * (float64(f)/float64(s) - 1),
			VulcanPTEWrites:  uint64(Fig6MappedPages),
			FullPTEWrites:    uint64(Fig6MappedPages * threads),
		}
	})
}

// RenderFig6 renders the comparison.
func RenderFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 (quantified): page-table memory for a %dMB mapping\n",
		Fig6MappedPages*4/1024)
	fmt.Fprintf(&b, "%8s %14s %16s %14s %12s %12s %14s\n",
		"threads", "shared(tbls)", "vulcan(tbls)", "full(tbls)",
		"vulcan +%", "full +%", "full PTE-wr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %14d %16d %14d %11.1f%% %11.0f%% %14d\n",
			r.Threads, r.SharedTables, r.VulcanTables, r.FullTables,
			r.VulcanOverheadPc, r.FullOverheadPc, r.FullPTEWrites)
	}
	return b.String()
}

// CSVFig6 renders the rows as CSV.
func CSVFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("threads,shared_tables,vulcan_tables,full_tables,vulcan_overhead_pc,full_overhead_pc,full_pte_writes\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%.2f,%.2f,%d\n",
			r.Threads, r.SharedTables, r.VulcanTables, r.FullTables,
			r.VulcanOverheadPc, r.FullOverheadPc, r.FullPTEWrites)
	}
	return b.String()
}
