package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"loom/internal/checkpoint"
	"loom/internal/core"
	"loom/internal/gen"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/qserve"
	"loom/internal/query"
	"loom/internal/serve"
)

// workloadDef is one traffic mix. Every workload runs the same service
// lifecycle in cycles — ingest, crash and recovery, checkpoints, queries,
// a workload-feedback restream, more queries — and the definition sets
// how much of each a cycle does.
type workloadDef struct {
	name     string
	vertices int
	// text sends the stream in the text codec through IngestSync, as
	// loom-serve's text /ingest handler does; otherwise every request is
	// one binary frame through IngestFrames.
	text bool
	// preload makes the ingest pass part of set-up (query-feedback);
	// otherwise set-up is an Open on an empty directory.
	preload bool
	// phase1/phase2 are the query counts before and after the feedback
	// restream, multiples of the observed-workload decay window.
	phase1, phase2 int
}

const (
	// setupReps extra set-ups on empty directories are timed before each
	// cycle of an ingest workload, so setup_s is a median of many taken
	// across the whole run.
	setupReps = 20
	// minCycles is the fewest cycles an untraced run makes; more follow
	// until the run holds a full window of ingest requests and of
	// queries, and then while they fit into --seconds. A traced run makes
	// one.
	minCycles = 2
	// checkpoints is the number of timed Checkpoint calls per cycle, made
	// after the stream has ended so that they cannot move a placement.
	checkpoints = 15
)

var workloadDefs = []workloadDef{
	{
		name:     "ingest-motif",
		vertices: 10000,
		phase1:   512,
		phase2:   512,
	},
	{
		name:     "query-feedback",
		vertices: 20000,
		text:     true,
		preload:  true,
		phase1:   2048,
		phase2:   2048,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// inputs are everything generated before the clock starts.
type inputs struct {
	reqs   []request
	wA, wB *query.Workload
	q1, q2 []querySpec
}

func makeInputs(def workloadDef, seed int64) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	reqs, err := genStream(def.vertices, def.text)
	if err != nil {
		return nil, err
	}
	a, b, err := workloads()
	if err != nil {
		return nil, err
	}
	return &inputs{
		reqs: reqs, wA: a, wB: b,
		q1: drawQueries(b, def.phase1, r),
		q2: drawQueries(b, def.phase2, r),
	}, nil
}

// serverConfig is loom-serve's configuration for the benchmark: k=8,
// Slack 1.2, LOOM window 256, threshold 0.05, static workload A over a
// four-letter alphabet, fsync always, automatic restream triggers off.
func serverConfig(in *inputs, n int) serve.Config {
	return serve.Config{
		Core: core.Config{
			Partition:  partition.Config{K: 8, ExpectedVertices: n, Slack: 1.2, Seed: graphSeed},
			WindowSize: 256,
			Threshold:  0.05,
		},
		Workload: in.wA,
		Alphabet: gen.DefaultAlphabet(4),
		Reanchor: serve.ReanchorPolicy{Enabled: true},
	}
}

// check is one output check.
type check struct {
	name, detail string
	ok           bool
}

// cycleResult is what every cycle must reproduce exactly.
type cycleResult struct {
	pre          fingerprint
	msgs1, msgs2 int
	imbalance    float64
	migration    float64
}

// windowSize is the number of consecutive requests over which a rate or
// percentile is taken: enough for ten samples beyond the p99.
const windowSize = 1000

// series is a run's requests of one kind, cut into consecutive windows of
// windowSize. Rates and percentiles are taken per window and reported as
// the median over windows, so a slow stretch of a few seconds on a shared
// host moves a minority of windows rather than the whole figure.
type series struct{ w []load }

// add records one request that carried units.
func (s *series) add(d time.Duration, err error, units int) {
	if n := len(s.w); n == 0 || len(s.w[n-1].lat) == windowSize {
		s.w = append(s.w, load{})
	}
	s.w[len(s.w)-1].add(d, err, units)
}

// count is the number of requests recorded.
func (s *series) count() int {
	n := 0
	for _, l := range s.w {
		n += len(l.lat)
	}
	return n
}

// windows returns the windows, a short last one merged into the one
// before it.
func (s *series) windows() []load {
	n := len(s.w)
	if n < 2 || len(s.w[n-1].lat) == windowSize {
		return s.w
	}
	w := append([]load(nil), s.w[:n-1]...)
	prev, last := &w[n-2], s.w[n-1]
	prev.lat = append(append([]float64(nil), prev.lat...), last.lat...)
	prev.busy += last.busy
	prev.units += last.units
	return w
}

// load is a window of closed-loop traffic of one kind.
type load struct {
	lat   []float64     // ms per request, +Inf for failures
	busy  time.Duration // time spent waiting for replies
	units int           // elements or queries acknowledged
}

// add records one request that carried units.
func (l *load) add(d time.Duration, err error, units int) {
	l.lat = append(l.lat, latency(d, err))
	l.busy += d
	if err == nil {
		l.units += units
	}
}

// rate is units acknowledged per second of waiting.
func (l load) rate() float64 { return float64(l.units) / l.busy.Seconds() }

// outcome is what one lifecycle measured.
type outcome struct {
	setup      []float64 // s
	ingest     series
	query      series
	checkpoint []float64
	recover    []float64
	restream   []float64
	cycles     []cycleResult
	// phase1/phase2 are the query counts per cycle.
	phase1, phase2 int
	rssMB          float64
	attempted      int
	failed         int
	checks         []check

	// Layer measurements; the replayed ones are filled by traced runs only.
	acc         layerAcc
	serveIngest time.Duration // serve spans of replayed ingest requests
	replayIn    time.Duration // replayed layers of the same requests
	serveQuery  time.Duration
	replayQuery time.Duration
	queryNs     map[string]*timing
	refresh     []float64
	cutFraction float64
}

func (o *outcome) addCheck(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// failedCheck reports whether a check of that name has failed.
func (o *outcome) failedCheck(name string) bool {
	for _, c := range o.checks {
		if c.name == name && !c.ok {
			return true
		}
	}
	return false
}

// latency converts a request's duration to milliseconds; a failed request
// misses every latency limit, so it counts as +Inf.
func latency(d time.Duration, err error) float64 {
	if err != nil {
		return math.Inf(1)
	}
	return float64(d.Nanoseconds()) / 1e6
}

// session is one lifecycle in progress.
type session struct {
	def  workloadDef
	in   *inputs
	t    *tracer
	dir  string
	cfg  serve.Config
	opts serve.PersistOptions
	o    *outcome
	req  int // request ID shared by a request's spans

	srv *serve.Server
	qe  *qserve.Engine
	// rp replays ingest in traced runs; check replays queries in every run.
	rp    *replayer
	check *replayer
	// served holds the first response per query spec on the current view:
	// the view is immutable, so every later response must equal it.
	served map[string]qserve.Response
}

// do runs one client request as a root span and counts it.
func (s *session) do(name string, fn func() error) (time.Duration, error) {
	s.req++
	id := s.t.begin(name, 0, s.req)
	s.o.attempted++
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.t.end(id)
	if err != nil {
		s.o.failed++
	}
	return d, err
}

// lifecycle runs cycles of one workload against fresh servers under dir
// until the next cycle would not fit into seconds. With a tracer, every
// call is a span, every request is replayed through the layers (see
// replayer), and one cycle is run.
func lifecycle(def workloadDef, in *inputs, seconds float64, t *tracer, dir string) (*outcome, error) {
	s := &session{
		def: def, in: in, t: t, dir: dir,
		cfg:  serverConfig(in, def.vertices),
		opts: serve.PersistOptions{Fsync: checkpoint.SyncAlways},
		o:    &outcome{queryNs: make(map[string]*timing), phase1: len(in.q1), phase2: len(in.q2)},
	}
	defer func() {
		if s.srv != nil {
			s.srv.Abort()
		}
		if s.rp != nil {
			s.rp.close()
		}
	}()
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	for c := 0; ; c++ {
		t0 := time.Now()
		if err := s.cycle(c); err != nil {
			return nil, err
		}
		last := time.Since(t0)
		fmt.Fprintf(os.Stderr, "cycle %d: %.2f s\n", c, last.Seconds())
		full := s.o.ingest.count() >= windowSize && s.o.query.count() >= windowSize
		if t != nil || c+1 >= minCycles && full && time.Since(start)+last > budget {
			break
		}
	}
	s.o.rssMB = maxRSSMB()
	for _, name := range []string{"recovery == pre-crash state", "query == offline store"} {
		if !s.o.failedCheck(name) {
			s.o.addCheck(name, true, "every one of %d cycles", len(s.o.cycles))
		}
	}
	first := s.o.cycles[0]
	for i, c := range s.o.cycles[1:] {
		s.o.addCheck(fmt.Sprintf("cycle %d == cycle 0", i+1), c == first,
			"placement %016x/%016x msgs %d/%d fed %d/%d", c.pre.placement, first.pre.placement,
			c.msgs1, first.msgs1, c.msgs2, first.msgs2)
	}
	return s.o, nil
}

// open starts a server on the fresh directory name and times it.
func (s *session) open(name string) (time.Duration, error) {
	s.opts.Dir = filepath.Join(s.dir, name)
	d, err := s.do("serve.open", func() error {
		var err error
		s.srv, err = serve.Open(s.cfg, s.opts)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("open: %w", err)
	}
	return d, nil
}

// cycle runs one lifecycle on a fresh server.
func (s *session) cycle(c int) error {
	if !s.def.preload {
		for i := 0; i < setupReps; i++ {
			d, err := s.open(fmt.Sprintf("setup%d-%d", c, i))
			if err != nil {
				return err
			}
			s.o.setup = append(s.o.setup, d.Seconds())
			s.srv.Abort()
			s.srv = nil
			if err := os.RemoveAll(s.opts.Dir); err != nil {
				return err
			}
		}
	}
	d, err := s.open(fmt.Sprintf("cycle%d", c))
	if err != nil {
		return err
	}
	if !s.def.preload {
		s.o.setup = append(s.o.setup, d.Seconds())
	}
	if s.t != nil {
		if s.rp != nil {
			s.rp.close()
		}
		s.rp = newReplayer(s.t, &s.o.acc)
		if err := s.rp.startIngest(s.cfg, filepath.Join(s.dir, fmt.Sprintf("replay%d", c)), s.opts.Fsync); err != nil {
			return err
		}
	}
	served, err := s.ingest(c)
	if err != nil {
		return err
	}
	preload := d + served
	var res cycleResult
	if res.pre, err = s.crashAndRecover(); err != nil {
		return err
	}
	if err := s.checkpoints(); err != nil {
		return err
	}
	if err := s.queryPhases(preload, &res); err != nil {
		return err
	}
	res.imbalance = s.srv.Stats().Imbalance
	s.o.cycles = append(s.o.cycles, res)
	s.srv.Abort()
	s.srv = nil
	return os.RemoveAll(s.opts.Dir)
}

// ingest sends the whole stream to the fresh server and returns the time
// spent waiting for the server. No checkpoint interrupts the stream, as
// with loom-serve's default of no periodic snapshots: a checkpoint drains
// the LOOM window and so moves placements.
func (s *session) ingest(c int) (time.Duration, error) {
	o := s.o
	var served time.Duration
	for i, rq := range s.in.reqs {
		d, err := s.do("serve.ingest", func() error { return ingestRequest(s.srv, rq) })
		o.ingest.add(d, err, len(rq.elems))
		if err != nil {
			o.addCheck("ingest request accepted", false, "cycle %d request %d: %v", c, i, err)
		}
		served += d
		if s.rp != nil {
			layers, err := s.rp.ingest(rq, s.req)
			if err != nil {
				return 0, err
			}
			o.serveIngest += d
			o.replayIn += layers
		}
	}
	st := s.srv.Stats()
	o.addCheck(fmt.Sprintf("cycle %d: zero rejected elements", c), st.Rejected == 0,
		"ingested=%d rejected=%d", st.Ingested, st.Rejected)
	o.cutFraction = st.CutFraction
	return served, nil
}

// crashAndRecover aborts the server, reopens its directory and checks
// that the recovered server matches the one that crashed, whose
// fingerprint it returns. With no checkpoint taken yet, the recovery
// replays the whole WAL.
func (s *session) crashAndRecover() (fingerprint, error) {
	pre, err := fingerprintOf(s.srv)
	if err != nil {
		return pre, err
	}
	if s.rp != nil {
		// The replayed engine must have placed every vertex exactly where
		// the server did.
		a, err := s.srv.Export()
		if err != nil {
			return pre, err
		}
		diff := placementDiff(a, s.rp.p.Assignment())
		s.o.addCheck("served placement == replayed core", diff == 0,
			"%d of %d vertices differ", diff, a.Len())
	}
	s.srv.Abort()
	s.srv = nil
	d, err := s.do("serve.recover", func() error {
		var err error
		s.srv, err = serve.Open(s.cfg, s.opts)
		return err
	})
	if err != nil {
		return pre, fmt.Errorf("recover: %w", err)
	}
	s.o.recover = append(s.o.recover, d.Seconds())
	if s.rp != nil {
		if err := s.rp.recover(s.req); err != nil {
			return pre, err
		}
	}
	got, err := fingerprintOf(s.srv)
	if err != nil {
		return pre, err
	}
	if got != pre {
		s.o.addCheck("recovery == pre-crash state", false,
			"placement %016x/%016x vertices %d/%d edges %d/%d cut %d/%d",
			got.placement, pre.placement, got.vertices, pre.vertices, got.edges, pre.edges, got.cut, pre.cut)
	}
	return pre, nil
}

// checkpoints makes the timed Checkpoint calls of a cycle on the
// recovered server. The stream has ended, so the first one drains the
// window just as POST /drain would; the rest snapshot the same state.
func (s *session) checkpoints() error {
	for i := 0; i < checkpoints; i++ {
		d, err := s.do("serve.checkpoint", s.srv.Checkpoint)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		s.o.checkpoint = append(s.o.checkpoint, d.Seconds())
		if s.rp != nil {
			if err := s.rp.checkpoint(s.req); err != nil {
				return err
			}
		}
	}
	return nil
}

// queryPhases serves phase 1 on the recovered placement, restreams
// against the observed workload, and serves phase 2 on the fed-back
// placement. preload is the ingest part of a query-feedback set-up; the
// first Refresh completes it.
func (s *session) queryPhases(preload time.Duration, res *cycleResult) error {
	o := s.o
	s.qe = qserve.New(s.srv, qserve.Options{})
	s.check = s.rp
	if s.check == nil {
		s.check = newReplayer(nil, &o.acc)
	}
	if err := s.refresh(); err != nil {
		return err
	}
	if s.def.preload {
		o.setup = append(o.setup, preload.Seconds()+o.refresh[len(o.refresh)-1])
	}
	res.msgs1 = s.queries(s.in.q1)
	d, err := s.do("serve.restream", func() error { return s.srv.TriggerRestream("workload") })
	if err != nil {
		return fmt.Errorf("restream: %w", err)
	}
	o.restream = append(o.restream, d.Seconds())
	if lr := s.srv.Stats().LastRestream; lr != nil {
		res.migration = lr.MigrationFraction
	}
	if err := s.refresh(); err != nil {
		return err
	}
	res.msgs2 = s.queries(s.in.q2)
	return nil
}

// refresh rebuilds the query engine's view and the checker's copy of it.
func (s *session) refresh() error {
	d, err := s.do("qserve.refresh", s.qe.Refresh)
	if err != nil {
		return fmt.Errorf("refresh: %w", err)
	}
	s.o.refresh = append(s.o.refresh, d.Seconds())
	s.served = make(map[string]qserve.Response)
	return s.check.refresh(s.srv, s.req)
}

// queries serves qs in order and returns the messages they cost. The
// first response per spec on a view is checked against the offline store
// (every response, in a traced run); later ones must repeat it.
func (s *session) queries(qs []querySpec) int {
	o := s.o
	msgs := 0
	for _, q := range qs {
		var resp qserve.Response
		d, err := s.do("qserve.query", func() error {
			var err error
			resp, err = s.qe.Query(qserve.Request{Spec: q.spec})
			return err
		})
		o.query.add(d, err, 1)
		if err != nil {
			o.addCheck("query served", false, "%q: %v", q.spec, err)
			continue
		}
		msgs += resp.Messages
		if s.t != nil {
			tm := o.queryNs[q.shape]
			if tm == nil {
				tm = &timing{}
				o.queryNs[q.shape] = tm
			}
			tm.add(d)
			o.serveQuery += d
		}
		first, seen := s.served[q.spec]
		if seen && s.t == nil {
			if resp != first {
				o.addCheck("query == offline store", false, "%q: served %+v, earlier on the same view %+v", q.spec, resp, first)
			}
			continue
		}
		s.served[q.spec] = resp
		layers, err := s.check.query(q, qserve.DefaultMatchLimit, resp, s.req)
		if err != nil {
			o.addCheck("query == offline store", false, "%v", err)
			continue
		}
		o.replayQuery += layers
	}
	return msgs
}

// ingestRequest sends one request the way loom-serve's /ingest handlers
// do: text bodies are decoded and applied with IngestSync, binary bodies
// go through IngestFrames. Element rejections count as failures.
func ingestRequest(srv *serve.Server, rq request) error {
	if rq.text {
		elems, err := decodeText(rq.body)
		if err != nil {
			return err
		}
		return srv.IngestSync(elems)
	}
	res, err := srv.IngestFrames(bytes.NewReader(rq.body))
	if err != nil {
		return err
	}
	return res.Err()
}

// fingerprint is the state a recovery must reproduce.
type fingerprint struct {
	placement                  uint64
	vertices, edges, cut, seen int
}

func fingerprintOf(srv *serve.Server) (fingerprint, error) {
	a, err := srv.Export()
	if err != nil {
		return fingerprint{}, err
	}
	st := srv.Stats()
	return fingerprint{
		placement: placementHash(a),
		vertices:  st.Vertices, edges: st.Edges, cut: st.CutEdges, seen: st.ObservedEdges,
	}, nil
}

// placementHash is an FNV-64a hash over the (vertex, partition) pairs in
// vertex order.
func placementHash(a *partition.Assignment) uint64 {
	type pair struct {
		v graph.VertexID
		p partition.ID
	}
	ps := make([]pair, 0, a.Len())
	a.EachVertex(func(v graph.VertexID, p partition.ID) { ps = append(ps, pair{v, p}) })
	sort.Slice(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
	h := fnv.New64a()
	var buf [12]byte
	for _, x := range ps {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(x.v) >> (8 * i))
		}
		for i := 0; i < 4; i++ {
			buf[8+i] = byte(uint32(x.p) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
