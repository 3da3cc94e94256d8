package core

import "time"

// Snapshot is a JSON-taggable, flattened view of Stats plus the governor's
// peak statistics — the form a running service reports over the wire
// (qmddd's job results and /metrics) and a CLI can dump without hand
// formatting. Counters mirror Stats; peaks mirror PeakStats with the elapsed
// time rendered in seconds for direct use as a Prometheus gauge.
type Snapshot struct {
	UniqueNodes     int     `json:"unique_nodes"`
	UniqueLookups   uint64  `json:"unique_lookups"`
	UniqueHits      uint64  `json:"unique_hits"`
	CTLookups       uint64  `json:"ct_lookups"`
	CTHits          uint64  `json:"ct_hits"`
	CTEntries       int     `json:"ct_entries"`
	CTCapacity      int     `json:"ct_capacity"`
	CTLoad          float64 `json:"ct_load"`
	InternedWeights int     `json:"interned_weights"`
	Prunes          uint64  `json:"prunes"`
	PrunedNodes     uint64  `json:"pruned_nodes"`
	PeakNodes       int     `json:"peak_nodes"`
	PeakWeights     int     `json:"peak_weights"`
	PeakApproxBytes int64   `json:"peak_approx_bytes"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
}

// Snapshot combines Stats and Peak into the wire form.
func (m *Manager[T]) Snapshot() Snapshot {
	st := m.Stats()
	pk := m.Peak()
	return Snapshot{
		UniqueNodes:     st.UniqueNodes,
		UniqueLookups:   st.UniqueLookups,
		UniqueHits:      st.UniqueHits,
		CTLookups:       st.CTLookups,
		CTHits:          st.CTHits,
		CTEntries:       st.CTEntries,
		CTCapacity:      st.CTCapacity,
		CTLoad:          st.CTLoadFactor(),
		InternedWeights: st.InternedWeights,
		Prunes:          st.Prunes,
		PrunedNodes:     st.PrunedNodes,
		PeakNodes:       pk.Nodes,
		PeakWeights:     pk.Weights,
		PeakApproxBytes: pk.ApproxBytes,
		ElapsedSeconds:  pk.Elapsed.Seconds(),
	}
}

// ResetPeaks rebases the governor's high-water marks to the current live
// table occupancy and restarts the elapsed clock. A long-lived manager that
// is reused across independent jobs (qmddd's warm per-worker managers) calls
// this between jobs so each job reports its own peaks, not the lifetime
// maximum of the process.
func (m *Manager[T]) ResetPeaks() {
	m.peakNodes = m.totalNodes
	m.peakWeights = m.totalWeights
	m.budgetStart = time.Now()
	m.budgetTick = 0
}
