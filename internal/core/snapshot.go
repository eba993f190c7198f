package core

import (
	"fmt"
	"sort"

	"vulcan/internal/checkpoint"
	"vulcan/internal/pagetable"
)

// Snapshot appends Vulcan's durable state: the CBFRP RNG, the QoS
// controller epoch, and per workload (in admission order)
// the QoS state, the first-touch placement count, and the MLFQ wait
// memory. The queue contents themselves are rebuilt from scratch every
// epoch and carry nothing across epochs except lastHeat.
func (v *Vulcan) Snapshot(e *checkpoint.Encoder) {
	v.rng.Snapshot(e)
	e.Int(v.qos.epoch)
	e.Int(len(v.qos.states))
	for _, st := range v.qos.states {
		e.Int(st.App.Index)
		e.F64(st.GPT)
		e.Int(st.Demand)
		e.Int(st.Alloc)
		e.Int(st.Credits)
		e.Bool(st.initialized)
		e.F64(st.lastFTHR)
		e.Bool(st.shrankLast)
		e.Int(st.holdUntil)
		e.Int(v.placed[st.App])
		v.queues[st.App].snapshotWaitMemory(e)
	}
}

// Restore reads Vulcan's state back in place. The receiver must already
// have every workload admitted (AppStarted), in the same order as the
// checkpointed run.
func (v *Vulcan) Restore(d *checkpoint.Decoder) error {
	if err := v.rng.Restore(d); err != nil {
		return err
	}
	v.qos.epoch = d.Int()
	n := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(v.qos.states) {
		return fmt.Errorf("core: checkpoint has %d workloads, policy has %d", n, len(v.qos.states))
	}
	for _, st := range v.qos.states {
		idx := d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if idx != st.App.Index {
			return fmt.Errorf("core: checkpoint workload index %d, expected %d", idx, st.App.Index)
		}
		st.GPT = d.F64()
		st.Demand = d.Int()
		st.Alloc = d.Int()
		st.Credits = d.Int()
		st.initialized = d.Bool()
		st.lastFTHR = d.F64()
		st.shrankLast = d.Bool()
		st.holdUntil = d.Int()
		v.placed[st.App] = d.Int()
		if err := v.queues[st.App].restoreWaitMemory(d); err != nil {
			return err
		}
	}
	return d.Err()
}

// snapshotWaitMemory appends the heat of pages left waiting last epoch,
// in ascending page order.
func (pq *PromotionQueues) snapshotWaitMemory(e *checkpoint.Encoder) {
	pages := make([]pagetable.VPage, 0, len(pq.lastHeat))
	for vp := range pq.lastHeat {
		pages = append(pages, vp)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	e.Int(len(pages))
	for _, vp := range pages {
		e.U64(uint64(vp))
		e.F64(pq.lastHeat[vp])
	}
}

// restoreWaitMemory reads the wait memory back in place. It accepts
// only what snapshotWaitMemory writes: pages in range, in strictly
// ascending order.
func (pq *PromotionQueues) restoreWaitMemory(d *checkpoint.Decoder) error {
	n := d.Length(16)
	if d.Err() != nil {
		return d.Err()
	}
	pq.lastHeat = make(map[pagetable.VPage]float64, n)
	var prev pagetable.VPage
	for i := 0; i < n; i++ {
		vp := pagetable.VPage(d.U64())
		heat := d.F64()
		if d.Err() != nil {
			return d.Err()
		}
		if vp > pagetable.MaxVPage {
			return fmt.Errorf("core: wait entry for page %d out of range", vp)
		}
		if i > 0 && vp <= prev {
			return fmt.Errorf("core: wait entry for page %d duplicated or out of order", vp)
		}
		prev = vp
		pq.lastHeat[vp] = heat
	}
	return nil
}
