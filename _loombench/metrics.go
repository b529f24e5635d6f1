package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) || lo == hi {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// perWindow returns the median over the series' windows of f, and
// reports the spread of the window values on stderr.
func perWindow(name, unit string, s series, f func(load) float64) float64 {
	w := s.windows()
	vals := make([]float64, len(w))
	for i, l := range w {
		vals[i] = f(l)
	}
	med := median(vals)
	fmt.Fprintf(os.Stderr, "%-18s %12.4f %s: median of %d windows, %d requests (min %.4f, max %.4f)\n",
		name, med, unit, len(w), s.count(), slices.Min(vals), slices.Max(vals))
	return med
}

func p50(l load) float64 { return quantile(l.lat, 0.50) }
func p99(l load) float64 { return quantile(l.lat, 0.99) }

// endToEnd returns the end-to-end metrics of a lifecycle. Rates and
// percentiles are medians over windows (see series); quality figures
// come from the first cycle, and every cycle is checked to reproduce
// them.
func (o *outcome) endToEnd() map[string]metric {
	c := o.cycles[0]
	return map[string]metric{
		"setup_s":            {median(o.setup), "s"},
		"ingest_elems_per_s": {perWindow("ingest_elems_per_s", "1/s", o.ingest, load.rate), "1/s"},
		"ingest_ack_p50_ms":  {perWindow("ingest_ack_p50_ms", "ms", o.ingest, p50), "ms"},
		"ingest_ack_p99_ms":  {perWindow("ingest_ack_p99_ms", "ms", o.ingest, p99), "ms"},
		"checkpoint_s":       {median(o.checkpoint), "s"},
		"recover_s":          {median(o.recover), "s"},
		"query_per_s":        {perWindow("query_per_s", "1/s", o.query, load.rate), "1/s"},
		"query_p50_ms":       {perWindow("query_p50_ms", "ms", o.query, p50), "ms"},
		"query_p99_ms":       {perWindow("query_p99_ms", "ms", o.query, p99), "ms"},
		"msgs_per_query":     {float64(c.msgs1) / float64(o.phase1), "msgs"},
		"msgs_per_query_fed": {float64(c.msgs2) / float64(o.phase2), "msgs"},
		"restream_s":         {median(o.restream), "s"},
		"imbalance":          {c.imbalance, "ratio"},
		"max_rss_mb":         {o.rssMB, "MB"},
		"success_frac":       {1 - float64(o.failed)/float64(o.attempted), "ratio"},
	}
}

// perLayer returns the per-layer metrics of a traced lifecycle, plus the
// tracing overhead against the end-to-end metrics of the untraced one.
func (o *outcome) perLayer(untraced map[string]metric) map[string]metric {
	a := &o.acc
	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	c := a.core
	m := map[string]metric{
		"stream.decode_ns_per_elem": {per(ns(a.decode), a.decodeElems), "ns"},

		"core.add_vertex_ns":          {per(ns(a.addV), a.nAddV), "ns"},
		"core.add_edge_ns":            {per(ns(a.addE), a.nAddE), "ns"},
		"core.remove_ns":              {per(ns(a.remove), a.nRemove), "ns"},
		"core.allocs_per_elem":        {per(float64(a.coreAllocs), a.coreElems), "count"},
		"core.motif_groups":           {float64(c.MotifGroups), "count"},
		"core.grouped_vertices":       {float64(c.GroupedVertices), "count"},
		"core.largest_group":          {float64(c.LargestGroup), "count"},
		"core.cut_fraction":           {o.cutFraction, "ratio"},
		"pattern.matches_created":     {float64(c.Tracker.MatchesCreated), "count"},
		"pattern.matches_dropped":     {float64(c.Tracker.MatchesDropped), "count"},
		"pattern.reexpansions":        {float64(c.Tracker.Reexpansions), "count"},
		"pattern.dropped_per_created": {per(float64(c.Tracker.MatchesDropped), c.Tracker.MatchesCreated), "ratio"},

		"checkpoint.wal_append_ns_per_record": {per(ns(a.walAppend), a.nWal), "ns"},
		"checkpoint.wal_bytes_per_elem":       {per(float64(a.walBytes), a.walElems), "B"},
		"checkpoint.snapshot_write_s":         {median(a.snapWrite), "s"},
		"checkpoint.snapshot_bytes":           {median(a.snapBytes), "B"},
		"checkpoint.open_s":                   {median(a.open), "s"},
		"checkpoint.replayed_elements":        {median(a.replayed), "count"},

		"serve.overhead_ns_per_elem":        {per(ns(o.serveIngest-o.replayIn), a.coreElems), "ns"},
		"serve.export_view_s":               {median(a.exportView), "s"},
		"serve.restream_migration_fraction": {o.cycles[0].migration, "ratio"},

		"qserve.refresh_s": {median(o.refresh), "s"},
		"qserve.parse_ns":  {per(ns(a.parse), a.nParse), "ns"},

		"store.build_s":             {median(a.build), "s"},
		"store.local_reads":         {per(float64(a.reads.LocalReads), a.queries), "1/query"},
		"store.remote_reads":        {per(float64(a.reads.RemoteReads), a.queries), "1/query"},
		"store.matches_per_message": {per(float64(a.matches), a.reads.Messages), "ratio"},

		"trace.ingest_coverage": {ns(o.replayIn) / ns(o.serveIngest), "ratio"},
		"trace.query_coverage":  {ns(o.replayQuery) / ns(o.serveQuery), "ratio"},
	}
	for _, shape := range []string{"path", "star", "cycle", "tree"} {
		m["qserve.query_ns."+shape] = metric{o.queryNs[shape].mean(), "ns"}
		m["store.match_ns."+shape] = metric{a.match[shape].mean(), "ns"}
	}
	traced := o.endToEnd()
	for _, name := range deltaMetrics {
		m["trace.delta."+name] = metric{traced[name].Value - untraced[name].Value, traced[name].Unit}
	}
	return m
}

// deltaMetrics are the end-to-end metrics whose traced-minus-untraced
// difference is the tracing overhead. The others are left out: message
// counts, imbalance and the success share are deterministic, so their
// difference is 0 on every passing run; the peak RSS is one figure for
// the whole process, which runs both lifecycles; and a traced run's one
// cycle holds too few requests for a p99.
var deltaMetrics = []string{
	"setup_s", "ingest_elems_per_s", "ingest_ack_p50_ms", "checkpoint_s",
	"recover_s", "query_per_s", "query_p50_ms", "restream_s",
}
