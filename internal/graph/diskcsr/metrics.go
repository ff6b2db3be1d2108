package diskcsr

import "gplus/internal/obs"

// Metrics is the package's obs instrumentation. All fields are optional
// in the sense that a nil *Metrics everywhere in this package simply
// records nothing; construct one with NewMetrics to export the
// diskcsr_* family from a crawl or analysis process.
type Metrics struct {
	segmentsFlushed    *obs.Counter
	segmentEdges       *obs.Counter
	compactions        *obs.Counter
	compactionSegments *obs.Counter
	compactionEdges    *obs.Counter
	mappedOpens        *obs.Counter
	mappedBytes        *obs.Gauge
}

// NewMetrics registers the diskcsr metric family on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		segmentsFlushed:    reg.Counter("diskcsr_segments_flushed_total"),
		segmentEdges:       reg.Counter("diskcsr_segment_edges_total"),
		compactions:        reg.Counter("diskcsr_compactions_total"),
		compactionSegments: reg.Counter("diskcsr_compaction_input_segments_total"),
		compactionEdges:    reg.Counter("diskcsr_compaction_edges_total"),
		mappedOpens:        reg.Counter("diskcsr_mapped_opens_total"),
		mappedBytes:        reg.Gauge("diskcsr_mapped_bytes"),
	}
	reg.Help("diskcsr_segments_flushed_total", "Edge segment files flushed to disk.")
	reg.Help("diskcsr_segment_edges_total", "Edges written into segment files, one per Add (duplicates and self-loops included).")
	reg.Help("diskcsr_compactions_total", "Segment compactions into CSR v2 files.")
	reg.Help("diskcsr_compaction_input_segments_total", "Segment files consumed by compactions.")
	reg.Help("diskcsr_compaction_edges_total", "Distinct edges written by compactions.")
	reg.Help("diskcsr_mapped_opens_total", "CSR v2 files opened via the mapped backend.")
	reg.Help("diskcsr_mapped_bytes", "Bytes currently memory-mapped by open v2 graphs.")
	return m
}
