package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"loom/internal/checkpoint"
	"loom/internal/core"
	"loom/internal/gen"
	"loom/internal/graph"
	"loom/internal/metrics"
	"loom/internal/partition"
	"loom/internal/qserve"
	"loom/internal/query"
	"loom/internal/serve"
	"loom/internal/stream"
)

// BenchRecord is one scenario of the benchmark trajectory loom-bench emits
// as BENCH_loom.json, so successive PRs can diff performance and quality.
type BenchRecord struct {
	// Scenario names graph x partitioner, e.g. "ba-8000/ldg".
	Scenario string `json:"scenario"`
	// NsPerOp is wall time per streamed vertex (legacy name, kept so
	// trajectories recorded before the dense-core refactor stay diffable).
	NsPerOp int64 `json:"ns_per_op"`
	// NsPerVertex is wall time per streamed vertex; AllocsPerVertex is heap
	// allocations per streamed vertex (runtime.MemStats.Mallocs delta over
	// the run). Together they are the speed trajectory: ns/vertex tracks
	// throughput, allocs/vertex catches hot-path allocation regressions
	// even when wall time is noisy.
	NsPerVertex     int64   `json:"ns_per_vertex"`
	AllocsPerVertex float64 `json:"allocs_per_vertex"`
	// CutFraction and Imbalance describe the resulting partitioning.
	CutFraction float64 `json:"cut_fraction"`
	Imbalance   float64 `json:"imbalance"`
	Vertices    int     `json:"vertices"`
	Edges       int     `json:"edges"`
	K           int     `json:"k"`
	// RecoverMS (serve-recover scenario only) is the wall-clock restart
	// latency of a durable server: snapshot load plus WAL tail replay.
	RecoverMS int64 `json:"recover_ms,omitempty"`
	// IngestElementsPerSec (ingest-text / ingest-binary scenarios only) is
	// end-to-end ingest throughput through a durable server: wire decode,
	// writer-side partitioning and WAL append, per stream element.
	IngestElementsPerSec float64 `json:"ingest_elements_per_sec,omitempty"`
	// ChurnElementsPerSec (churn scenario only) is ingest throughput over
	// a mixed add/remove stream: vertex and edge deletions interleaved
	// with arrivals and re-adds, exercising placement-table tombstoning,
	// drift decrements and WAL-logged removal records end to end.
	ChurnElementsPerSec float64 `json:"churn_elements_per_sec,omitempty"`
	// QueryPerSec (query-serve scenario only) is served queries per second
	// through the online query engine (lock-free view reads, full message
	// accounting). MsgsPerQueryBefore/After bracket the workload feedback
	// loop: mean cross-shard messages per query of a fixed hot-pattern mix
	// on the streamed placement, and after one observed-workload restream
	// of the same server.
	QueryPerSec        float64 `json:"query_per_sec,omitempty"`
	MsgsPerQueryBefore float64 `json:"msgs_per_query_before,omitempty"`
	MsgsPerQueryAfter  float64 `json:"msgs_per_query_after,omitempty"`
}

// measure runs fn, returning its wall time and the number of heap
// allocations it performed (best effort: a concurrent GC's own allocations
// are counted too, but the scenarios here are single-goroutine and
// allocation-dominated, so the delta is stable).
func measure(fn func() error) (time.Duration, uint64, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return elapsed, ms.Mallocs - m0, err
}

// BenchTrajectory measures the standard scenario set: the streaming
// heuristics, LOOM, and a 3-pass ReLDG restream on a power-law and a
// community graph. Deterministic per seed (timings aside).
func BenchTrajectory(seed int64, quick bool) ([]BenchRecord, error) {
	n := 8000
	if quick {
		n = 1000
	}
	const k = 8
	var out []BenchRecord

	record := func(scenario string, g *graph.Graph, a *partition.Assignment, elapsed time.Duration, mallocs uint64) {
		perVertex := elapsed.Nanoseconds() / int64(g.NumVertices())
		out = append(out, BenchRecord{
			Scenario:        scenario,
			NsPerOp:         perVertex,
			NsPerVertex:     perVertex,
			AllocsPerVertex: float64(mallocs) / float64(g.NumVertices()),
			CutFraction:     metrics.CutFraction(g, a),
			Imbalance:       metrics.VertexImbalance(a),
			Vertices:        g.NumVertices(),
			Edges:           g.NumEdges(),
			K:               k,
		})
	}

	alphabet := gen.DefaultAlphabet(4)
	graphs := make(map[string]*graph.Graph, 2)
	{
		rng := rand.New(rand.NewSource(seed))
		lab := &gen.UniformLabeler{Alphabet: alphabet, Rand: rng}
		ba, err := gen.BarabasiAlbert(n, 2, lab, rng)
		if err != nil {
			return nil, err
		}
		graphs[fmt.Sprintf("ba-%d", n)] = ba
		comm, err := gen.PlantedPartitionDegrees(n, k, 12, 3, lab, rng)
		if err != nil {
			return nil, err
		}
		graphs[fmt.Sprintf("community-%d", n)] = comm
	}

	for _, gname := range []string{fmt.Sprintf("ba-%d", n), fmt.Sprintf("community-%d", n)} {
		g := graphs[gname]
		cfg := partition.Config{K: k, ExpectedVertices: g.NumVertices(), Slack: 1.2, Seed: seed}
		base, err := stream.VertexOrder(g, stream.RandomOrder, rand.New(rand.NewSource(seed+100)))
		if err != nil {
			return nil, err
		}

		for _, name := range []string{"hash", "ldg", "fennel"} {
			var s partition.Streaming
			switch name {
			case "hash":
				s, err = partition.NewHash(cfg)
			case "ldg":
				s, err = partition.NewLDG(cfg)
			case "fennel":
				s, err = partition.NewFennel(partition.FennelConfig{Config: cfg, ExpectedEdges: g.NumEdges()})
			}
			if err != nil {
				return nil, err
			}
			var a *partition.Assignment
			elapsed, mallocs, err := measure(func() error {
				a = partition.PartitionStream(g, base, s)
				return nil
			})
			if err != nil {
				return nil, err
			}
			record(gname+"/"+name, g, a, elapsed, mallocs)
		}

		const passes = 3
		rs := &partition.Restreamer{
			Config:  partition.RestreamConfig{Passes: passes, Priority: partition.PriorityAmbivalence},
			NewPass: func(int) (partition.Streaming, error) { return partition.NewLDG(cfg) },
		}
		var res *partition.RestreamResult
		elapsed, mallocs, err := measure(func() error {
			var rerr error
			res, rerr = rs.Run(g, base, nil)
			return rerr
		})
		if err != nil {
			return nil, err
		}
		record(fmt.Sprintf("%s/reldg-%dpass", gname, passes), g, res.Final, elapsed/passes, mallocs/passes)

		// LOOM with a synthetic workload, on the power-law graph only (the
		// community graph has no meaningful workload here).
		if gname == fmt.Sprintf("ba-%d", n) {
			w, err := buildBenchTrie(alphabet, seed)
			if err != nil {
				return nil, err
			}
			p, err := core.New(core.Config{Partition: cfg, WindowSize: 256, Threshold: 0.05}, w)
			if err != nil {
				return nil, err
			}
			var a *partition.Assignment
			elapsed, mallocs, err := measure(func() error {
				var rerr error
				a, rerr = p.Run(stream.NewSliceSource(stream.FromVertexOrder(g, base)))
				return rerr
			})
			if err != nil {
				return nil, err
			}
			record(gname+"/loom", g, a, elapsed, mallocs)
		}
	}

	// Durable serving restart latency: a server that checkpointed at two
	// thirds of the stream and then crashed recovers from snapshot + WAL
	// tail; recover_ms is what a rolling restart of loom-serve costs.
	if err := benchRecover(&out, graphs[fmt.Sprintf("community-%d", n)], alphabet, seed, k,
		fmt.Sprintf("community-%d/serve-recover", n)); err != nil {
		return nil, err
	}

	// Ingest front doors: the text codec against the binary wire
	// protocol, both decoded on the feeding goroutine and logged to the
	// same WAL format at equal durability.
	if err := benchIngest(&out, graphs[fmt.Sprintf("community-%d", n)], alphabet, seed, k,
		fmt.Sprintf("community-%d", n)); err != nil {
		return nil, err
	}

	// Online query serving and the observed-workload loop: throughput of
	// POST /query's engine and the msgs/query delta one feedback restream
	// buys on a fixed hot-pattern mix.
	if err := benchQueries(&out, graphs[fmt.Sprintf("community-%d", n)], alphabet, seed, k,
		fmt.Sprintf("community-%d/query-serve", n)); err != nil {
		return nil, err
	}

	// Deletion churn: the same durable front door fed a mixed add/remove
	// stream, covering the tombstone/decrement/WAL-removal path.
	if err := benchChurn(&out, graphs[fmt.Sprintf("community-%d", n)], alphabet, seed, k,
		fmt.Sprintf("community-%d/churn", n)); err != nil {
		return nil, err
	}
	return out, nil
}

// benchQueries measures the online query path (internal/qserve) and the
// workload feedback loop it closes: ingest the community graph into a
// plain windowed-LDG server, serve a fixed hot-pattern mix (recording it
// in the observed-workload tracker), then restream against that observed
// workload and serve the same mix again. query_per_sec is the serving
// throughput; msgs_per_query_before/after bracket what the feedback
// restream buys.
func benchQueries(out *[]BenchRecord, g *graph.Graph, alphabet []graph.Label, seed int64, k int, scenario string) error {
	s, err := serve.New(serve.Config{
		Core: core.Config{
			Partition:  partition.Config{K: k, ExpectedVertices: g.NumVertices(), Slack: 1.2, Seed: seed},
			WindowSize: 64,
			Threshold:  0.05,
		},
		Alphabet: alphabet,
		Drift:    serve.DriftConfig{Passes: 2},
	})
	if err != nil {
		return err
	}
	defer s.Stop()
	elems, err := stream.FromGraph(g, stream.TemporalOrder, nil)
	if err != nil {
		return err
	}
	for i := 0; i < len(elems); i += ingestBenchBatch {
		end := min(i+ingestBenchBatch, len(elems))
		if err := s.IngestSync(elems[i:end]); err != nil {
			return err
		}
	}
	if err := s.Drain(); err != nil {
		return err
	}

	e := qserve.New(s, qserve.Options{MatchLimit: -1})
	l := func(i int) string { return string(alphabet[i%len(alphabet)]) }
	hot := []string{
		"path " + l(0) + " " + l(1),
		"path " + l(1) + " " + l(0) + " " + l(1),
		"cycle " + l(0) + " " + l(1) + " " + l(2),
	}
	const reps = 20
	mix := func() (msgs, queries int, err error) {
		for r := 0; r < reps; r++ {
			for _, spec := range hot {
				resp, qerr := e.Query(qserve.Request{Spec: spec})
				if qerr != nil {
					return 0, 0, qerr
				}
				msgs += resp.Messages
				queries++
			}
		}
		return msgs, queries, nil
	}

	var msgs, queries int
	elapsed, _, err := measure(func() error {
		var merr error
		msgs, queries, merr = mix()
		return merr
	})
	if err != nil {
		return err
	}
	before := float64(msgs) / float64(queries)
	qps := float64(queries) / elapsed.Seconds()

	// One feedback restream: the tracker already holds the mix, so the
	// loom pass scores against exactly what was served.
	if err := s.TriggerRestream("workload"); err != nil {
		return err
	}
	if err := e.Refresh(); err != nil {
		return err
	}
	msgs, queries, err = mix()
	if err != nil {
		return err
	}
	after := float64(msgs) / float64(queries)

	a, err := s.Export()
	if err != nil {
		return err
	}
	*out = append(*out, BenchRecord{
		Scenario:           scenario,
		CutFraction:        metrics.CutFraction(g, a),
		Imbalance:          metrics.VertexImbalance(a),
		Vertices:           g.NumVertices(),
		Edges:              g.NumEdges(),
		K:                  k,
		QueryPerSec:        qps,
		MsgsPerQueryBefore: before,
		MsgsPerQueryAfter:  after,
	})
	return nil
}

// benchRecover measures serve.Open over a data directory holding a
// mid-stream checkpoint and a WAL tail, appending one BenchRecord.
func benchRecover(out *[]BenchRecord, g *graph.Graph, alphabet []graph.Label, seed int64, k int, scenario string) error {
	w, err := query.GenerateWorkload(query.DefaultMix(10), alphabet, rand.New(rand.NewSource(seed+7)))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "loom-bench-recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{
		Core: core.Config{
			Partition:  partition.Config{K: k, ExpectedVertices: g.NumVertices(), Slack: 1.2, Seed: seed},
			WindowSize: 256,
			Threshold:  0.05,
		},
		Workload: w,
		Alphabet: alphabet,
	}
	popts := serve.PersistOptions{Dir: dir, Fsync: checkpoint.SyncAlways}
	s, err := serve.Open(cfg, popts)
	if err != nil {
		return err
	}
	elems, err := stream.FromGraph(g, stream.TemporalOrder, nil)
	if err != nil {
		s.Stop()
		return err
	}
	barrier := 2 * len(elems) / 3
	feed := func(part []stream.Element) error {
		for i := 0; i < len(part); i += 512 {
			end := i + 512
			if end > len(part) {
				end = len(part)
			}
			if err := s.IngestSync(part[i:end]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := feed(elems[:barrier]); err != nil {
		s.Stop()
		return err
	}
	if err := s.Checkpoint(); err != nil {
		s.Stop()
		return err
	}
	if err := feed(elems[barrier:]); err != nil {
		s.Stop()
		return err
	}
	s.Abort()

	var recovered *serve.Server
	elapsed, mallocs, err := measure(func() error {
		var oerr error
		recovered, oerr = serve.Open(cfg, popts)
		return oerr
	})
	if err != nil {
		return err
	}
	if err := recovered.Drain(); err != nil {
		recovered.Stop()
		return err
	}
	a, err := recovered.Export()
	recovered.Stop()
	if err != nil {
		return err
	}
	perVertex := elapsed.Nanoseconds() / int64(g.NumVertices())
	*out = append(*out, BenchRecord{
		Scenario:        scenario,
		NsPerOp:         perVertex,
		NsPerVertex:     perVertex,
		AllocsPerVertex: float64(mallocs) / float64(g.NumVertices()),
		CutFraction:     metrics.CutFraction(g, a),
		Imbalance:       metrics.VertexImbalance(a),
		Vertices:        g.NumVertices(),
		Edges:           g.NumEdges(),
		K:               k,
		RecoverMS:       elapsed.Milliseconds(),
	})
	return nil
}

// ingestBenchBatch is the elements-per-batch of both ingest scenarios:
// the text path flushes IngestSync at this size (exactly loom-serve's
// HTTP handler) and the binary path packs this many elements per frame.
const ingestBenchBatch = 512

// benchIngest measures end-to-end ingest throughput of the two wire
// front doors at equal durability (WAL append per accepted batch, fsync
// none): the line-oriented text codec and the binary frame protocol,
// each decoded on the feeding goroutine. Both log every batch as the
// same frame-payload WAL record, so the two differ only in decode. The
// writer runs plain windowed LDG (no workload trie), so the measurement
// is dominated by what the wire protocol controls — decode, validation,
// interning and the WAL append — not by motif scoring that is identical
// on both paths.
// Throughput is the best of five runs (fresh server and data dir each),
// which shakes out GC and scheduler noise on small quick-mode instances
// well enough for the CI regression gate's 20% tolerance.
func benchIngest(out *[]BenchRecord, g *graph.Graph, alphabet []graph.Label, seed int64, k int, prefix string) error {
	elems, err := stream.FromGraph(g, stream.TemporalOrder, nil)
	if err != nil {
		return err
	}
	// Pre-render both wire forms once: the measurement covers decode and
	// apply, never rendering (clients pay that, not the server).
	var text bytes.Buffer
	if err := graph.WriteStreamed(&text, g); err != nil {
		return err
	}
	var bin bytes.Buffer
	fw := stream.NewFrameWriter(&bin)
	for i := 0; i < len(elems); i += ingestBenchBatch {
		end := min(i+ingestBenchBatch, len(elems))
		if err := fw.WriteBatch(elems[i:end]); err != nil {
			return err
		}
	}

	cfg := serve.Config{
		Core: core.Config{
			Partition:  partition.Config{K: k, ExpectedVertices: g.NumVertices(), Slack: 1.2, Seed: seed},
			WindowSize: 64,
			Threshold:  0.05,
		},
		Alphabet: alphabet,
	}

	run := func(scenario string, feed func(s *serve.Server) error) error {
		var best time.Duration
		var bestMallocs uint64
		var a *partition.Assignment
		for rep := 0; rep < 5; rep++ {
			dir, err := os.MkdirTemp("", "loom-bench-ingest-")
			if err != nil {
				return err
			}
			s, err := serve.Open(cfg, serve.PersistOptions{Dir: dir, Fsync: checkpoint.SyncNone})
			if err != nil {
				os.RemoveAll(dir)
				return err
			}
			elapsed, mallocs, err := measure(func() error { return feed(s) })
			if err == nil {
				if err = s.Drain(); err == nil {
					a, err = s.Export()
				}
			}
			s.Stop()
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			if rep == 0 || elapsed < best {
				best, bestMallocs = elapsed, mallocs
			}
		}
		perVertex := best.Nanoseconds() / int64(g.NumVertices())
		*out = append(*out, BenchRecord{
			Scenario:             scenario,
			NsPerOp:              perVertex,
			NsPerVertex:          perVertex,
			AllocsPerVertex:      float64(bestMallocs) / float64(g.NumVertices()),
			CutFraction:          metrics.CutFraction(g, a),
			Imbalance:            metrics.VertexImbalance(a),
			Vertices:             g.NumVertices(),
			Edges:                g.NumEdges(),
			K:                    k,
			IngestElementsPerSec: float64(len(elems)) / best.Seconds(),
		})
		return nil
	}

	if err := run(prefix+"/ingest-text", func(s *serve.Server) error {
		src := stream.FromReader(bytes.NewReader(text.Bytes()))
		batch := make([]stream.Element, 0, ingestBenchBatch)
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			err := s.IngestSync(batch)
			batch = batch[:0]
			return err
		}
		for {
			el, ok := src.Next()
			if !ok {
				break
			}
			batch = append(batch, el)
			if len(batch) == ingestBenchBatch {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
		return src.Err()
	}); err != nil {
		return err
	}
	return run(prefix+"/ingest-binary", func(s *serve.Server) error {
		res, err := s.IngestFrames(bytes.NewReader(bin.Bytes()))
		if err != nil {
			return err
		}
		return res.Err()
	})
}

// spliceChurn injects deterministic removals and re-adds into an
// insert-only element stream without ever producing a rejectable
// element: a vertex still referenced by later elements is re-added
// immediately after its removal, one past its last reference stays gone,
// and removed edges never reappear (the source stream carries each edge
// once).
func spliceChurn(elems []stream.Element, seed int64) []stream.Element {
	lastRef := make(map[graph.VertexID]int)
	for i := range elems {
		el := &elems[i]
		lastRef[el.V] = i
		if el.Kind == stream.EdgeElement {
			lastRef[el.U] = i
		}
	}
	rng := rand.New(rand.NewSource(seed))
	labels := make(map[graph.VertexID]graph.Label)
	var liveV []graph.VertexID
	var liveE [][2]graph.VertexID
	out := make([]stream.Element, 0, len(elems)+len(elems)/8)
	for i := range elems {
		el := elems[i]
		out = append(out, el)
		switch el.Kind {
		case stream.VertexElement:
			labels[el.V] = el.Label
			liveV = append(liveV, el.V)
		case stream.EdgeElement:
			liveE = append(liveE, [2]graph.VertexID{el.V, el.U})
		}
		switch x := rng.Float64(); {
		case x < 0.04 && len(liveV) > 0:
			j := rng.Intn(len(liveV))
			v := liveV[j]
			out = append(out, stream.Element{Kind: stream.RemoveVertexElement, V: v})
			keep := liveE[:0]
			for _, e := range liveE {
				if e[0] != v && e[1] != v {
					keep = append(keep, e)
				}
			}
			liveE = keep
			if lastRef[v] > i {
				out = append(out, stream.Element{Kind: stream.VertexElement, V: v, Label: labels[v]})
			} else {
				liveV[j] = liveV[len(liveV)-1]
				liveV = liveV[:len(liveV)-1]
			}
		case x < 0.08 && len(liveE) > 0:
			j := rng.Intn(len(liveE))
			e := liveE[j]
			liveE[j] = liveE[len(liveE)-1]
			liveE = liveE[:len(liveE)-1]
			out = append(out, stream.Element{Kind: stream.RemoveEdgeElement, V: e[0], U: e[1]})
		}
	}
	return out
}

// benchChurn measures ingest throughput over a mixed add/remove stream
// through the same durable front door as benchIngest (IngestSync batches,
// WAL append per batch, fsync none): every removal exercises the
// placement-table tombstone, the drift-estimator decrement and a WAL
// removal record. Quality metrics describe the surviving graph's
// partitioning. Best of five runs, matching the other ingest scenarios.
func benchChurn(out *[]BenchRecord, g *graph.Graph, alphabet []graph.Label, seed int64, k int, scenario string) error {
	base, err := stream.FromGraph(g, stream.TemporalOrder, nil)
	if err != nil {
		return err
	}
	elems := spliceChurn(base, seed+200)

	cfg := serve.Config{
		Core: core.Config{
			Partition:  partition.Config{K: k, ExpectedVertices: g.NumVertices(), Slack: 1.2, Seed: seed},
			WindowSize: 64,
			Threshold:  0.05,
		},
		Alphabet: alphabet,
	}

	var best time.Duration
	var bestMallocs uint64
	var live *graph.Graph
	var a *partition.Assignment
	for rep := 0; rep < 5; rep++ {
		dir, err := os.MkdirTemp("", "loom-bench-churn-")
		if err != nil {
			return err
		}
		s, err := serve.Open(cfg, serve.PersistOptions{Dir: dir, Fsync: checkpoint.SyncNone})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		elapsed, mallocs, err := measure(func() error {
			for i := 0; i < len(elems); i += ingestBenchBatch {
				end := min(i+ingestBenchBatch, len(elems))
				if err := s.IngestSync(elems[i:end]); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			if err = s.Drain(); err == nil {
				var v *serve.View
				if v, err = s.ExportView(); err == nil {
					live, a = v.Graph, v.Assignment
				}
			}
		}
		s.Stop()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		if rep == 0 || elapsed < best {
			best, bestMallocs = elapsed, mallocs
		}
	}
	perVertex := best.Nanoseconds() / int64(g.NumVertices())
	*out = append(*out, BenchRecord{
		Scenario:            scenario,
		NsPerOp:             perVertex,
		NsPerVertex:         perVertex,
		AllocsPerVertex:     float64(bestMallocs) / float64(g.NumVertices()),
		CutFraction:         metrics.CutFraction(live, a),
		Imbalance:           metrics.VertexImbalance(a),
		Vertices:            live.NumVertices(),
		Edges:               live.NumEdges(),
		K:                   k,
		ChurnElementsPerSec: float64(len(elems)) / best.Seconds(),
	})
	return nil
}

// CompareBaseline checks records against a committed baseline and returns
// one human-readable line per regression beyond tol (a fraction, e.g.
// 0.20): ns_per_vertex may not grow and ingest_elements_per_sec may not
// shrink by more than tol relative to the baseline's value for the same
// scenario. Scenarios present on only one side are ignored, so the set
// can evolve without invalidating old baselines.
func CompareBaseline(records, baseline []BenchRecord, tol float64) []string {
	base := make(map[string]BenchRecord, len(baseline))
	for _, b := range baseline {
		base[b.Scenario] = b
	}
	var regressions []string
	for _, r := range records {
		b, ok := base[r.Scenario]
		if !ok {
			continue
		}
		if b.NsPerVertex > 0 && float64(r.NsPerVertex) > float64(b.NsPerVertex)*(1+tol) {
			regressions = append(regressions,
				fmt.Sprintf("%s: ns_per_vertex %d exceeds baseline %d by more than %.0f%%",
					r.Scenario, r.NsPerVertex, b.NsPerVertex, tol*100))
		}
		if b.IngestElementsPerSec > 0 && r.IngestElementsPerSec < b.IngestElementsPerSec*(1-tol) {
			regressions = append(regressions,
				fmt.Sprintf("%s: ingest_elements_per_sec %.0f below baseline %.0f by more than %.0f%%",
					r.Scenario, r.IngestElementsPerSec, b.IngestElementsPerSec, tol*100))
		}
		if b.ChurnElementsPerSec > 0 && r.ChurnElementsPerSec < b.ChurnElementsPerSec*(1-tol) {
			regressions = append(regressions,
				fmt.Sprintf("%s: churn_elements_per_sec %.0f below baseline %.0f by more than %.0f%%",
					r.Scenario, r.ChurnElementsPerSec, b.ChurnElementsPerSec, tol*100))
		}
		if b.QueryPerSec > 0 && r.QueryPerSec < b.QueryPerSec*(1-tol) {
			regressions = append(regressions,
				fmt.Sprintf("%s: query_per_sec %.0f below baseline %.0f by more than %.0f%%",
					r.Scenario, r.QueryPerSec, b.QueryPerSec, tol*100))
		}
		if b.MsgsPerQueryAfter > 0 && r.MsgsPerQueryAfter > b.MsgsPerQueryAfter*(1+tol) {
			regressions = append(regressions,
				fmt.Sprintf("%s: msgs_per_query_after %.2f exceeds baseline %.2f by more than %.0f%%",
					r.Scenario, r.MsgsPerQueryAfter, b.MsgsPerQueryAfter, tol*100))
		}
	}
	return regressions
}

// ReadBenchJSON parses a benchmark trajectory written by WriteBenchJSON.
func ReadBenchJSON(r io.Reader) ([]BenchRecord, error) {
	var records []BenchRecord
	if err := json.NewDecoder(r).Decode(&records); err != nil {
		return nil, err
	}
	return records, nil
}

// buildBenchTrie synthesises the default workload trie for the bench.
func buildBenchTrie(alphabet []graph.Label, seed int64) (*trieType, error) {
	rng := rand.New(rand.NewSource(seed))
	w, err := query.GenerateWorkload(query.DefaultMix(10), alphabet, rng)
	if err != nil {
		return nil, err
	}
	trie := newTrieForAlphabet(alphabet)
	if err := w.BuildTrie(trie); err != nil {
		return nil, err
	}
	return trie, nil
}

// WriteBenchJSON renders records as indented JSON.
func WriteBenchJSON(w io.Writer, records []BenchRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
