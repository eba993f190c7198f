package policy

// HotSets exposes Memtis's per-app hot sets, its global reclaim's keep
// sets, to the external ranking tests.
func (m *Memtis) HotSets() []PageSet { return m.hot }
