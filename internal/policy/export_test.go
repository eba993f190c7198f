package policy

// HotSets exposes Memtis's per-app hot sets, its global reclaim's keep
// sets, to the external ranking tests.
func (m *Memtis) HotSets() []PageSet { return m.hot }

// Fig8System builds Fig 8's large-working-set system under pol.
var Fig8System = fig8System
