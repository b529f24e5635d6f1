package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"loom/internal/checkpoint"
	"loom/internal/core"
	"loom/internal/graph"
	"loom/internal/motif"
	"loom/internal/partition"
	"loom/internal/qserve"
	"loom/internal/query"
	"loom/internal/serve"
	"loom/internal/signature"
	"loom/internal/store"
	"loom/internal/stream"
)

// layerAcc accumulates what the replay measures in each layer.
type layerAcc struct {
	decode      time.Duration
	decodeElems int

	addV, addE, remove    time.Duration
	nAddV, nAddE, nRemove int
	coreAllocs            uint64
	coreElems             int
	core                  core.Stats // summed over engine generations

	walAppend time.Duration
	nWal      int
	walBytes  int64
	walElems  int

	snapWrite, snapBytes []float64
	open, replayed       []float64

	exportView, build []float64

	parse   time.Duration
	nParse  int
	match   map[string]*timing
	queries int
	matches int
	reads   store.Stats
}

// timing is a total duration and the number of calls it covers.
type timing struct {
	d time.Duration
	n int
}

func (t *timing) add(d time.Duration) { t.d += d; t.n++ }

// mean returns the mean in nanoseconds (0 when nothing was timed).
func (t *timing) mean() float64 {
	if t == nil || t.n == 0 {
		return 0
	}
	return float64(t.d.Nanoseconds()) / float64(t.n)
}

// replayer feeds the requests a server received through the layers'
// public functions directly: the stream codecs, a twin core.Partitioner,
// a checkpoint.Store in a scratch directory with the server's fsync
// policy, and store.Build/Engine over views exported from the server.
// With a nil tracer it only checks outputs; with a tracer every layer
// call becomes a child span of a "replay" span.
type replayer struct {
	t   *tracer
	acc *layerAcc

	// Ingest twin; nil p when only queries are replayed.
	cfg   core.Config
	trie  *motif.Trie
	p     *core.Partitioner
	g     *graph.Graph
	st    *checkpoint.Store
	dir   string
	fsync checkpoint.SyncPolicy
	fd    stream.FrameDecoder
	batch stream.Batch

	// Query twin: the store built from the last replayed refresh.
	view *store.Store

	allocSample []metrics.Sample
}

func newReplayer(t *tracer, acc *layerAcc) *replayer {
	return &replayer{
		t:           t,
		acc:         acc,
		allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

// startIngest builds the ingest twin of a server configured with cfg.
func (rp *replayer) startIngest(cfg serve.Config, dir string, fsync checkpoint.SyncPolicy) error {
	f := signature.NewFactoryForAlphabet(cfg.Alphabet)
	rp.trie = motif.New(f, motif.Options{MaxMotifVertices: cfg.MaxMotifVertices})
	if err := cfg.Workload.BuildTrie(rp.trie); err != nil {
		return err
	}
	rp.cfg = cfg.Core
	p, err := core.New(rp.cfg, rp.trie)
	if err != nil {
		return err
	}
	st, _, err := checkpoint.Open(dir, fsync)
	if err != nil {
		return err
	}
	rp.p, rp.g, rp.st, rp.dir, rp.fsync = p, graph.New(), st, dir, fsync
	return nil
}

// close releases the scratch store.
func (rp *replayer) close() {
	if rp.st != nil {
		rp.st.Close()
		rp.st = nil
	}
	if rp.p != nil {
		rp.retire()
		rp.p = nil
	}
}

// retire folds the current engine generation's counters into the totals.
func (rp *replayer) retire() {
	s := rp.p.Stats()
	c := &rp.acc.core
	c.MotifGroups += s.MotifGroups
	c.GroupedVertices += s.GroupedVertices
	c.LargestGroup = max(c.LargestGroup, s.LargestGroup)
	c.Tracker.MatchesCreated += s.Tracker.MatchesCreated
	c.Tracker.MatchesDropped += s.Tracker.MatchesDropped
	c.Tracker.Reexpansions += s.Tracker.Reexpansions
}

func (rp *replayer) allocs() uint64 {
	metrics.Read(rp.allocSample)
	return rp.allocSample[0].Value.Uint64()
}

// ingest replays one ingest request and returns the time the replayed
// layers took.
func (rp *replayer) ingest(rq request, req int) (time.Duration, error) {
	root := rp.t.begin("replay", 0, req)
	defer rp.t.end(root)
	var layers time.Duration
	acc := rp.acc

	// stream: decode the body exactly as the server's front door does.
	var elems []stream.Element
	if rq.text {
		id := rp.t.begin("stream.text_decode", root, req)
		t0 := time.Now()
		var err error
		elems, err = decodeText(rq.body)
		d := time.Since(t0)
		rp.t.end(id)
		if err != nil {
			return 0, fmt.Errorf("replay text decode: %w", err)
		}
		acc.decode += d
		acc.decodeElems += len(elems)
		layers += d
	} else {
		id := rp.t.begin("stream.frame_decode", root, req)
		t0 := time.Now()
		fr := stream.NewFrameReader(bytes.NewReader(rq.body))
		err := fr.Next(&rp.batch)
		if err == nil {
			err = rp.fd.Decode(&rp.batch)
		}
		d := time.Since(t0)
		rp.t.end(id)
		if err != nil {
			return 0, fmt.Errorf("replay frame decode: %w", err)
		}
		if rp.batch.Deduped != 0 {
			return 0, fmt.Errorf("replay frame decode: %d duplicates in a generated frame", rp.batch.Deduped)
		}
		elems = rp.batch.Elems
		acc.decode += d
		acc.decodeElems += len(elems)
		layers += d
	}

	// core: every element through the twin partitioner, timed per call.
	id := rp.t.begin("core", root, req)
	a0 := rp.allocs()
	t0 := time.Now()
	for _, el := range elems {
		s := time.Now()
		var err error
		switch el.Kind {
		case stream.VertexElement:
			err = rp.p.AddVertex(el.V, el.Label)
			acc.addV += time.Since(s)
			acc.nAddV++
		case stream.EdgeElement:
			err = rp.p.AddEdge(el.V, el.U)
			acc.addE += time.Since(s)
			acc.nAddE++
		case stream.RemoveVertexElement:
			err = rp.p.RemoveVertex(el.V)
			acc.remove += time.Since(s)
			acc.nRemove++
		case stream.RemoveEdgeElement:
			err = rp.p.RemoveEdge(el.V, el.U)
			acc.remove += time.Since(s)
			acc.nRemove++
		}
		if err != nil {
			return 0, fmt.Errorf("replay core: %w", err)
		}
	}
	d := time.Since(t0)
	acc.coreAllocs += rp.allocs() - a0
	rp.t.end(id)
	acc.coreElems += len(elems)
	layers += d

	// The graph mirror feeds the replayed snapshots; it is serve's own
	// bookkeeping, so it stays outside the layer spans.
	for _, el := range elems {
		if err := mirror(rp.g, el); err != nil {
			return 0, err
		}
	}

	// checkpoint: the WAL record serve writes for this request.
	id = rp.t.begin("checkpoint.wal_append", root, req)
	t0 = time.Now()
	var n int
	var err error
	if rq.text {
		n, err = rp.st.Append(checkpoint.RecordBatch, elems)
	} else {
		n, err = rp.st.AppendBinary(rp.batch.Payload)
	}
	d = time.Since(t0)
	rp.t.end(id)
	if err != nil {
		return 0, fmt.Errorf("replay wal append: %w", err)
	}
	acc.walAppend += d
	acc.nWal++
	acc.walBytes += int64(n)
	acc.walElems += len(elems)
	layers += d
	return layers, nil
}

// mirror applies one accepted element to g.
func mirror(g *graph.Graph, el stream.Element) error {
	switch el.Kind {
	case stream.VertexElement:
		g.AddVertex(el.V, el.Label)
	case stream.EdgeElement:
		return g.AddEdge(el.V, el.U)
	case stream.RemoveVertexElement:
		g.RemoveVertex(el.V)
	case stream.RemoveEdgeElement:
		g.RemoveEdge(el.V, el.U)
	}
	return nil
}

// checkpoint replays a Checkpoint barrier: drain the window, log the
// barrier record, reseed the engine with its own assignment and write the
// snapshot.
func (rp *replayer) checkpoint(req int) error {
	root := rp.t.begin("replay", 0, req)
	defer rp.t.end(root)
	id := rp.t.begin("core.barrier", root, req)
	rp.p.Finish()
	rp.retire()
	np, err := core.New(rp.cfg, rp.trie)
	if err != nil {
		return err
	}
	var serr error
	rp.p.Assignment().EachVertex(func(v graph.VertexID, p partition.ID) {
		if err := np.Assignment().Set(v, p); err != nil && serr == nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}
	rp.p = np
	rp.t.end(id)

	id = rp.t.begin("checkpoint.wal_append", root, req)
	_, err = rp.st.Append(checkpoint.RecordBarrier, nil)
	rp.t.end(id)
	if err != nil {
		return err
	}
	id = rp.t.begin("checkpoint.snapshot_write", root, req)
	t0 := time.Now()
	m := checkpoint.Meta{
		K: rp.cfg.Partition.K, ExpectedVertices: rp.cfg.Partition.ExpectedVertices,
		WindowSize: rp.cfg.WindowSize, Threshold: rp.cfg.Threshold,
		Slack: rp.cfg.Partition.Slack, Seed: rp.cfg.Partition.Seed,
	}
	err = rp.st.WriteSnapshot(m, rp.g, rp.p.Assignment())
	d := time.Since(t0)
	rp.t.end(id)
	if err != nil {
		return fmt.Errorf("replay snapshot: %w", err)
	}
	rp.acc.snapWrite = append(rp.acc.snapWrite, d.Seconds())
	size, err := newestSnapshotSize(rp.dir)
	if err != nil {
		return err
	}
	rp.acc.snapBytes = append(rp.acc.snapBytes, float64(size))
	return nil
}

// newestSnapshotSize returns the size of the last snapshot file in dir
// (names sort by sequence number).
func newestSnapshotSize(dir string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil || len(names) == 0 {
		return 0, fmt.Errorf("no snapshot in %s: %v", dir, err)
	}
	fi, err := os.Stat(names[len(names)-1])
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// recover replays a restart: reopen the scratch store, as serve.Open
// reopens the server's directory.
func (rp *replayer) recover(req int) error {
	root := rp.t.begin("replay", 0, req)
	defer rp.t.end(root)
	if err := rp.st.Close(); err != nil {
		return err
	}
	id := rp.t.begin("checkpoint.open", root, req)
	t0 := time.Now()
	st, rec, err := checkpoint.Open(rp.dir, rp.fsync)
	d := time.Since(t0)
	rp.t.end(id)
	if err != nil {
		return fmt.Errorf("replay open: %w", err)
	}
	rp.st = st
	n := 0
	for _, r := range rec.Tail {
		n += len(r.Elems)
	}
	rp.acc.open = append(rp.acc.open, d.Seconds())
	rp.acc.replayed = append(rp.acc.replayed, float64(n))
	return nil
}

// refresh replays a view refresh: export the view and shard it.
func (rp *replayer) refresh(srv *serve.Server, req int) error {
	root := rp.t.begin("replay", 0, req)
	defer rp.t.end(root)
	id := rp.t.begin("serve.export_view", root, req)
	t0 := time.Now()
	v, err := srv.ExportView()
	d := time.Since(t0)
	rp.t.end(id)
	if err != nil {
		return err
	}
	rp.acc.exportView = append(rp.acc.exportView, d.Seconds())
	id = rp.t.begin("store.build", root, req)
	t0 = time.Now()
	st, err := store.Build(v.Graph, v.Assignment)
	d = time.Since(t0)
	rp.t.end(id)
	if err != nil {
		return err
	}
	rp.acc.build = append(rp.acc.build, d.Seconds())
	rp.view = st
	return nil
}

// query replays one query on the last refreshed view and checks the
// served response against it.
func (rp *replayer) query(q querySpec, limit int, got qserve.Response, req int) (time.Duration, error) {
	root := rp.t.begin("replay", 0, req)
	defer rp.t.end(root)
	id := rp.t.begin("qserve.parse", root, req)
	t0 := time.Now()
	p, err := qserve.Request{Spec: q.spec}.Pattern()
	dParse := time.Since(t0)
	rp.t.end(id)
	if err != nil {
		return 0, err
	}
	rp.acc.parse += dParse
	rp.acc.nParse++

	id = rp.t.begin("store.match", root, req)
	t0 = time.Now()
	eng := store.NewEngine(rp.view)
	var matches int
	if labels, ok := query.PathLabels(p); ok {
		matches, err = eng.MatchPath(labels, limit)
	} else {
		matches, err = eng.MatchPattern(p, limit)
	}
	dMatch := time.Since(t0)
	rp.t.end(id)
	if err != nil {
		return 0, err
	}
	if rp.acc.match == nil {
		rp.acc.match = make(map[string]*timing)
	}
	tm := rp.acc.match[q.shape]
	if tm == nil {
		tm = &timing{}
		rp.acc.match[q.shape] = tm
	}
	tm.add(dMatch)
	st := eng.Stats()
	if matches != got.Matches || st.Messages != got.Messages ||
		st.LocalReads != got.LocalReads || st.RemoteReads != got.RemoteReads {
		return 0, fmt.Errorf("query %q: served matches=%d messages=%d local=%d remote=%d, offline store %d/%d/%d/%d",
			q.spec, got.Matches, got.Messages, got.LocalReads, got.RemoteReads,
			matches, st.Messages, st.LocalReads, st.RemoteReads)
	}
	rp.acc.queries++
	rp.acc.matches += matches
	rp.acc.reads.LocalReads += st.LocalReads
	rp.acc.reads.RemoteReads += st.RemoteReads
	rp.acc.reads.Messages += st.Messages
	return dParse + dMatch, nil
}

// placementDiff counts vertices whose placement differs between a and b.
func placementDiff(a, b *partition.Assignment) int {
	diff := 0
	a.EachVertex(func(v graph.VertexID, p partition.ID) {
		if b.Get(v) != p {
			diff++
		}
	})
	b.EachVertex(func(v graph.VertexID, _ partition.ID) {
		if !a.Assigned(v) {
			diff++
		}
	})
	return diff
}

// decodeText parses a text request body as the text ingest handler does.
func decodeText(body []byte) ([]stream.Element, error) {
	src := stream.FromReader(bytes.NewReader(body))
	var elems []stream.Element
	for {
		el, ok := src.Next()
		if !ok {
			break
		}
		elems = append(elems, el)
	}
	return elems, src.Err()
}
