// Package serve is the online partition-serving runtime: the long-running
// layer that connects the streaming partitioner (internal/core) to a live
// query workload.
//
// A Server runs a single-writer ingest loop that drives a core.Partitioner
// through a bounded, batched mailbox with backpressure, while publishing
// copy-on-write assignment snapshots through an atomic pointer so any
// number of reader goroutines answer Where/Route lookups lock-free. A
// drift monitor maintains incremental cut-fraction and imbalance
// estimators as edges stream in; when either crosses its configured
// threshold the server kicks off a background restream (workload-aware
// LOOM, ReLDG or ReFennel) over a detached graph snapshot, then atomically
// swaps in the new assignment together with a migration plan.
//
// The design splits state three ways:
//
//   - Writer-owned: the canonical graph, the live core.Partitioner, the
//     drift counters. Touched only by the ingest loop goroutine.
//   - Published: Snapshot behind an atomic.Pointer. Readers load the
//     pointer and answer from the write-once placement table.
//   - Background: an in-flight restream works on fully detached clones
//     (fresh interners, private trie) because the engine's identity layer
//     is not concurrency-safe; results return over a channel and are
//     adopted by the writer.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loom/internal/checkpoint"
	"loom/internal/core"
	"loom/internal/fault"
	"loom/internal/graph"
	"loom/internal/metrics"
	"loom/internal/motif"
	"loom/internal/partition"
	"loom/internal/query"
	"loom/internal/signature"
	"loom/internal/stream"
)

// Defaults applied by New for zero-valued Config fields.
const (
	// DefaultMailbox is the mailbox capacity in batches.
	DefaultMailbox = 64
	// DefaultExpectedVertices sizes the LDG capacity constraint when the
	// caller does not know the eventual stream length. The constraint is
	// soft: once exceeded, placement degrades gracefully to least-loaded.
	DefaultExpectedVertices = 1 << 16
	// DefaultMinAssigned gates drift triggers until the estimate has a
	// meaningful sample.
	DefaultMinAssigned = 512
	// drainBurst bounds how many queued batches one loop cycle absorbs
	// before republishing the snapshot.
	drainBurst = 32
	// maxReportedErrors caps the per-batch element errors joined into the
	// IngestSync result; the rest are only counted.
	maxReportedErrors = 8
)

// ErrStopped is returned by operations on a stopped Server.
var ErrStopped = errors.New("serve: server stopped")

// ErrWedged is the base error of every wedged-ingest refusal: a WAL
// append (or restream-swap snapshot) failed, so the in-memory state
// leads the log and accepting more would acknowledge durability the
// directory cannot deliver. errors.Is(err, ErrWedged) matches. A
// successful Checkpoint — explicit, or scheduled by ReanchorPolicy —
// clears it.
var ErrWedged = errors.New("serve: persistence wedged")

// ErrNoPersistence is returned by Checkpoint on a server built without a
// data directory (New instead of Open).
var ErrNoPersistence = errors.New("serve: server has no persistence configured")

// DriftConfig parameterises the drift monitor and the background restream
// it triggers.
type DriftConfig struct {
	// MaxCutFraction triggers a restream when cut edges / observed
	// assigned-assigned edges exceeds it. Zero disables the cut trigger.
	// Pair it with MaxImbalance: an oversized capacity constraint can
	// collapse a connected stream into one partition, where the cut is a
	// legitimate zero and only the imbalance trigger fires.
	MaxCutFraction float64
	// MaxImbalance triggers a restream when max partition size over ideal
	// exceeds it (1.0 = perfect balance). Zero disables the trigger.
	MaxImbalance float64
	// MinAssigned gates both triggers until this many vertices are
	// assigned. Zero defaults to DefaultMinAssigned.
	MinAssigned int
	// CooldownAssigned is the number of newly assigned vertices required
	// between restreams. Zero defaults to MinAssigned.
	CooldownAssigned int
	// Passes is the number of restream passes per trigger (default 1).
	Passes int
	// Priority reorders the stream between passes (prioritized
	// restreaming).
	Priority partition.Priority
	// SelfWeight is the prior self-affinity bonus (zero defaults to 1).
	SelfWeight float64
	// Heuristic picks the restream engine: "loom" (workload-aware, the
	// default), "ldg" (ReLDG) or "fennel" (ReFennel).
	Heuristic string
	// WindowEdges sizes the drift estimator window in observed
	// (assigned-assigned) edges. When set, the cut trigger compares the
	// cut fraction of the last completed window instead of the lifetime
	// counters, so a long well-partitioned prefix cannot mask fresh
	// drift. Zero keeps the lifetime estimator.
	WindowEdges int
	// MaxMigrationFraction bounds the data movement an automatically
	// triggered restream may impose: if the finished plan would move more
	// than this fraction of the assigned vertices, the swap is refused
	// and the old assignment keeps serving (the cooldown then spaces out
	// the next attempt). Manual restreams are operator decisions and
	// exempt. Zero means unlimited.
	MaxMigrationFraction float64
	// MaxMessagesPerQuery triggers a workload restream when the served
	// queries' cross-shard message rate (messages per query, averaged
	// over QueryWindow queries) exceeds it. The serve layer does not see
	// queries itself: the query engine (internal/qserve) reads this via
	// DriftConfig() and calls TriggerRestream("workload"). Zero disables
	// the trigger.
	MaxMessagesPerQuery float64
	// QueryWindow is the number of served queries per message-rate
	// window for the MaxMessagesPerQuery trigger. Zero lets the query
	// engine pick its default.
	QueryWindow int
}

// Config parameterises a Server.
type Config struct {
	// Core carries the LOOM parameters (partition config, window,
	// threshold...). Core.Partition.ExpectedVertices zero defaults to
	// DefaultExpectedVertices.
	Core core.Config
	// Workload summarises the query workload LOOM keeps intact; nil serves
	// with plain windowed LDG. The workload must not be mutated after New:
	// background restreams rebuild private tries from it.
	Workload *query.Workload
	// Alphabet pre-assigns signature factors so motif signatures are
	// deterministic and agree between the live trie and restream tries.
	Alphabet []graph.Label
	// MaxMotifVertices caps enumerated motif size (0 = package default).
	MaxMotifVertices int
	// Mailbox is the ingest queue capacity in batches; Ingest blocks
	// (backpressure) when it is full. Zero defaults to DefaultMailbox.
	Mailbox int
	// Drift configures degradation-triggered restreaming.
	Drift DriftConfig
	// Admission rate-limits ingest ahead of the mailbox; refused batches
	// fail fast with *OverloadError instead of blocking. Zero Rate
	// disables it.
	Admission AdmissionConfig
	// Reanchor makes a wedged server retry the re-anchoring snapshot
	// itself instead of waiting for an operator Checkpoint.
	Reanchor ReanchorPolicy
	// SnapshotEveryBatches bounds the WAL tail on long runs: after this
	// many accepted data batches the writer performs the same drain +
	// barrier + engine-reseed cycle an explicit Checkpoint does and writes
	// a durable snapshot, so recovery never replays more than roughly this
	// many batches. Like Checkpoint, the drain force-assigns window
	// residents; pick a period long enough that the placement-quality cost
	// is amortised. Zero disables the trigger. Ignored without
	// persistence.
	SnapshotEveryBatches int
	// DecaySpan ages edges out of restream scoring: when > 0, an edge
	// whose last add is more than DecaySpan accepted elements in the past
	// is excluded from the detached clone a background restream scores
	// over. Time is logical — accepted-element counts, never the wall
	// clock — so replay ages edges exactly as the live server did. The
	// canonical graph and the served placements are unaffected; only
	// restream scoring forgets stale structure. Zero keeps every edge
	// forever.
	DecaySpan int64
}

// ctrlKind discriminates control envelopes from data batches.
type ctrlKind uint8

const (
	ctrlNone ctrlKind = iota
	ctrlDrain
	ctrlRestream
	ctrlExport
	ctrlView
	ctrlCheckpoint
)

type envelope struct {
	elems  []stream.Element
	kind   ctrlKind
	reply  chan error                 // buffered(1) when non-nil
	replyA chan *partition.Assignment // ctrlExport only, buffered(1)
	replyV chan *View                 // ctrlView only, buffered(1)
	// trigger labels a ctrlRestream request ("manual", "workload", ...)
	// for the restream report and the migration-budget exemption.
	trigger string
}

// restreamOutcome carries a finished background restream back to the
// writer.
type restreamOutcome struct {
	res     *partition.RestreamResult
	err     error
	trigger string
	started time.Time
	// trie is the restream's private TPSTry++ (loom heuristic only): on
	// adoption it becomes the live trie, so the pattern tracker follows
	// the workload the restream was scored against.
	trie *motif.Trie
	// workload records which workload the loom heuristic scored against:
	// "static" (Config.Workload) or "observed" (live workload source).
	// Empty for ldg/fennel.
	workload string
}

// Server is an online partition server. Ingest/IngestSync feed the graph
// stream; Where/Route/Stats answer from lock-free snapshots on any number
// of goroutines; Stop shuts the pipeline down gracefully.
type Server struct {
	cfg  Config
	trie *motif.Trie
	k    int

	mail chan envelope
	cur  atomic.Pointer[Snapshot]
	quit chan struct{}
	done chan struct{}
	once sync.Once
	// aborted flips the quit path from graceful shutdown to a hard stop.
	aborted atomic.Bool
	// inflight counts senders between their quit-check and their enqueue,
	// so shutdown can quiesce the mailbox without stranding a reply.
	inflight atomic.Int64

	// persist is the durability layer; persist.store is nil on a server
	// built without a data directory. The store itself is writer-owned;
	// the counters are atomics so Stats can read them from any goroutine.
	persist struct {
		store      *checkpoint.Store
		enabled    bool
		dir        string
		fsync      checkpoint.SyncPolicy
		walRecords atomic.Int64
		walBytes   atomic.Int64
		// walTail counts WAL records appended since the last successful
		// snapshot rotation — the tail a crash recovery would replay.
		walTail   atomic.Int64
		snapshots atomic.Int64
		lastErr   atomic.Pointer[string]
		// wedged flips when a WAL append fails: the in-memory state then
		// holds elements the log does not, so further ingest is refused
		// (acknowledging it would poison recovery). A successful snapshot
		// (Checkpoint, restream swap) captures the full state, rotates
		// the WAL past the gap and clears the wedge.
		wedged  atomic.Bool
		recover RecoverInfo
	}

	// admission is the ingest token bucket; nil when Admission.Rate is 0.
	// It runs on the caller's goroutine in send, ahead of the mailbox.
	admission *tokenBucket

	// workloadSrc is the live workload source installed by
	// SetWorkloadSource; nil serves the static Config.Workload. An
	// atomic pointer because the installer (query engine) and the
	// consumer (writer goroutine, at restream launch) are different
	// goroutines.
	workloadSrc atomic.Pointer[workloadSource]

	// heal is the self-healing re-anchor state. The atomics are readable
	// from any goroutine (Stats); everything else is writer-owned.
	heal struct {
		enabled      bool
		initial, max time.Duration
		timer        func(time.Duration) <-chan time.Time
		// retryCh is the armed retry timer; nil (blocking forever in the
		// loop select) when no retry is pending.
		retryCh <-chan time.Time
		backoff time.Duration
		// attempts/healed count re-anchor tries and successes; nextMS is
		// the currently armed backoff (0 = no retry pending).
		attempts atomic.Int64
		healed   atomic.Int64
		nextMS   atomic.Int64
	}

	// Writer-owned state below: touched only by the loop goroutine.
	g *graph.Graph
	p *core.Partitioner
	// ccfg is the effective core configuration: cfg.Core with defaults
	// applied and ExpectedVertices grown at restream swaps. Engine
	// rebuilds (restream adoption, checkpoints, recovery) all construct
	// from it, and snapshots record it so a recovered engine scores with
	// the same capacity constraint.
	ccfg     core.Config
	tab      *table
	pending  []graph.VertexID // ingested, not yet mirrored into tab
	cut      int              // cut edges among assigned-assigned pairs
	observed int              // assigned-assigned edges seen
	epoch    uint64
	ingested int64
	rejected int64
	// edgeStamp records each live edge's last-add logical time (accepted
	// element count) for Config.DecaySpan; nil when decay is off. Only
	// read at restream launch, where the live graph's deterministic edge
	// iteration drives the probes, so map order never leaks.
	edgeStamp map[edgeKey]int64
	// batchesSinceSnap counts accepted data batches toward the
	// Config.SnapshotEveryBatches periodic checkpoint trigger.
	batchesSinceSnap int
	// walScratch accumulates a batch's accepted elements for the WAL.
	walScratch []stream.Element
	// wantSnapshot asks handle to write a snapshot after the next
	// publish; every snapWaits entry (Checkpoint callers) receives the
	// write error.
	wantSnapshot bool
	snapWaits    []chan error

	restreaming   bool
	everRestream  bool // a restream has been launched at least once
	sinceRestream int  // vertices assigned since the last restream event
	restreams     int
	lastRestream  *RestreamReport
	manualWait    chan error
	restreamCh    chan *restreamOutcome

	// Windowed drift estimator (Drift.WindowEdges > 0): winStart* mark
	// the counters at the open window's start; winRate/winValid hold the
	// last completed window's cut fraction.
	winStartCut      int
	winStartObserved int
	winRate          float64
	winValid         bool
	// vertsAtSwap is the vertex count at the last restream swap, the
	// baseline of the adaptive ExpectedVertices re-plan (0 before the
	// first swap).
	vertsAtSwap int
}

// workloadSource wraps the observed-workload callback for atomic storage.
type workloadSource struct {
	fn func() *query.Workload
}

// edgeKey is an undirected edge normalised for the decay stamp map.
type edgeKey struct{ a, b graph.VertexID }

func mkEdgeKey(u, v graph.VertexID) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// View is a detached copy of the assigned portion of the serving state:
// every vertex in Graph has a placement in Assignment. Window residents
// (ingested but not yet placed) are excluded, so a View can always back a
// sharded store. The copy shares nothing with the server — readers may
// keep it indefinitely.
type View struct {
	Graph      *graph.Graph
	Assignment *partition.Assignment
	// Epoch is the published epoch the view was cut at.
	Epoch uint64
}

// buildTrie captures w (possibly nil) into a fresh TPSTry++ with its own
// signature factory and label interner.
func buildTrie(w *query.Workload, alphabet []graph.Label, maxMotif int) (*motif.Trie, error) {
	var f *signature.Factory
	if len(alphabet) > 0 {
		f = signature.NewFactoryForAlphabet(alphabet)
	} else {
		f = signature.NewFactory()
	}
	t := motif.New(f, motif.Options{MaxMotifVertices: maxMotif})
	if w != nil {
		if err := w.BuildTrie(t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// New starts a Server and its ingest loop.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	s.publish()
	go s.loop()
	return s, nil
}

// newServer validates cfg and builds a Server without publishing a
// snapshot or starting the loop, so Open can restore persisted state
// first.
func newServer(cfg Config) (*Server, error) {
	if cfg.Core.Partition.ExpectedVertices == 0 {
		cfg.Core.Partition.ExpectedVertices = DefaultExpectedVertices
	}
	if cfg.Mailbox == 0 {
		cfg.Mailbox = DefaultMailbox
	}
	if cfg.Mailbox < 1 {
		return nil, fmt.Errorf("serve: mailbox capacity %d < 1", cfg.Mailbox)
	}
	if cfg.Drift.MinAssigned == 0 {
		cfg.Drift.MinAssigned = DefaultMinAssigned
	}
	if cfg.Drift.CooldownAssigned == 0 {
		cfg.Drift.CooldownAssigned = cfg.Drift.MinAssigned
	}
	if cfg.Drift.Passes == 0 {
		cfg.Drift.Passes = 1
	}
	switch cfg.Drift.Heuristic {
	case "", "loom", "ldg", "fennel":
	default:
		return nil, fmt.Errorf("serve: unknown restream heuristic %q", cfg.Drift.Heuristic)
	}
	trie, err := buildTrie(cfg.Workload, cfg.Alphabet, cfg.MaxMotifVertices)
	if err != nil {
		return nil, err
	}
	p, err := core.New(cfg.Core, trie)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		trie:       trie,
		k:          cfg.Core.Partition.K,
		mail:       make(chan envelope, cfg.Mailbox),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		g:          graph.New(),
		p:          p,
		ccfg:       cfg.Core,
		tab:        newTable(0),
		restreamCh: make(chan *restreamOutcome, 1),
	}
	if cfg.Admission.Rate < 0 {
		return nil, fmt.Errorf("serve: admission rate %v < 0", cfg.Admission.Rate)
	}
	if cfg.SnapshotEveryBatches < 0 {
		return nil, fmt.Errorf("serve: snapshot every %d batches < 0", cfg.SnapshotEveryBatches)
	}
	if cfg.DecaySpan < 0 {
		return nil, fmt.Errorf("serve: decay span %d < 0", cfg.DecaySpan)
	}
	if cfg.DecaySpan > 0 {
		s.edgeStamp = make(map[edgeKey]int64)
	}
	if cfg.Admission.Rate > 0 {
		s.admission = newTokenBucket(cfg.Admission)
	}
	if cfg.Reanchor.Enabled {
		s.heal.enabled = true
		s.heal.initial = cfg.Reanchor.Initial
		if s.heal.initial <= 0 {
			s.heal.initial = DefaultReanchorInitial
		}
		s.heal.max = cfg.Reanchor.Max
		if s.heal.max <= 0 {
			s.heal.max = DefaultReanchorMax
		}
		if s.heal.max < s.heal.initial {
			s.heal.max = s.heal.initial
		}
		s.heal.timer = cfg.Reanchor.Timer
		if s.heal.timer == nil {
			s.heal.timer = defaultReanchorTimer
		}
	}
	return s, nil
}

// Ingest enqueues a batch of stream elements and returns once the batch is
// accepted into the mailbox (blocking for backpressure when it is full).
// Element errors are counted in Stats().Rejected; use IngestSync to
// receive them.
func (s *Server) Ingest(elems []stream.Element) error {
	return s.send(envelope{elems: elems})
}

// IngestSync enqueues a batch and waits until the writer has processed it
// and published the resulting snapshot, returning the per-element errors
// (joined, capped) if any were rejected.
func (s *Server) IngestSync(elems []stream.Element) error {
	env := envelope{elems: elems, reply: make(chan error, 1)}
	if err := s.send(env); err != nil {
		return err
	}
	return <-env.reply
}

// Flush waits until everything enqueued before it has been processed and
// published.
func (s *Server) Flush() error { return s.IngestSync(nil) }

// Drain forces the assignment of every window-resident vertex, as if the
// stream had ended. Placement quality for those vertices may suffer (they
// are assigned before their remaining adjacency arrives); intended for
// end-of-stream, checkpointing, or tests. Ingest may continue afterwards.
func (s *Server) Drain() error {
	env := envelope{kind: ctrlDrain, reply: make(chan error, 1)}
	if err := s.send(env); err != nil {
		return err
	}
	return <-env.reply
}

// Restream requests a restream now, regardless of drift thresholds, and
// waits for the new assignment to be adopted. It fails if a restream is
// already in flight.
func (s *Server) Restream() error { return s.TriggerRestream("manual") }

// TriggerRestream is Restream with a caller-supplied trigger label for
// the restream report ("workload" for the query engine's message-rate
// trigger; empty defaults to "manual"). Triggers other than "manual" are
// subject to the Drift.MaxMigrationFraction budget.
func (s *Server) TriggerRestream(trigger string) error {
	if trigger == "" {
		trigger = "manual"
	}
	env := envelope{kind: ctrlRestream, trigger: trigger, reply: make(chan error, 1)}
	if err := s.send(env); err != nil {
		return err
	}
	return <-env.reply
}

// SetWorkloadSource installs (or, with nil, removes) a live workload
// source. When set, every subsequent loom-heuristic restream asks fn for
// the current observed workload and scores against it instead of the
// static Config.Workload (falling back to the static workload when fn
// returns nil or an empty workload). fn is called on the writer goroutine
// at restream launch and must be safe for that; the returned workload
// must not be mutated afterwards.
func (s *Server) SetWorkloadSource(fn func() *query.Workload) {
	if fn == nil {
		s.workloadSrc.Store(nil)
		return
	}
	s.workloadSrc.Store(&workloadSource{fn: fn})
}

// DriftConfig returns the effective drift configuration (defaults
// applied). Safe for any goroutine; the query engine reads its
// MaxMessagesPerQuery/QueryWindow trigger parameters from it.
func (s *Server) DriftConfig() DriftConfig { return s.cfg.Drift }

// Export returns an independent copy of the current assignment (assigned
// vertices only).
func (s *Server) Export() (*partition.Assignment, error) {
	env := envelope{kind: ctrlExport, replyA: make(chan *partition.Assignment, 1)}
	if err := s.send(env); err != nil {
		return nil, err
	}
	a := <-env.replyA
	if a == nil {
		// An abort raced the request: the envelope was refused.
		return nil, ErrStopped
	}
	return a, nil
}

// ExportView returns a detached copy of the assigned portion of the
// serving state — graph and placements — suitable for building a sharded
// query store (internal/store). Window residents are excluded: queries
// over the view see the placed portion of the graph only.
func (s *Server) ExportView() (*View, error) {
	env := envelope{kind: ctrlView, replyV: make(chan *View, 1)}
	if err := s.send(env); err != nil {
		return nil, err
	}
	v := <-env.replyV
	if v == nil {
		// An abort raced the request: the envelope was refused.
		return nil, ErrStopped
	}
	return v, nil
}

// Checkpoint forces a durable snapshot now. Like Drain, it assigns every
// window-resident vertex first (placement quality for those may suffer);
// the engine is then reseeded at the barrier — exactly the reseed a
// restream swap performs — and the snapshot plus WAL rotation are on disk
// before Checkpoint returns. Fails with ErrNoPersistence on a server
// built without a data directory.
func (s *Server) Checkpoint() error {
	if s.persist.store == nil {
		return ErrNoPersistence
	}
	env := envelope{kind: ctrlCheckpoint, reply: make(chan error, 1)}
	if err := s.send(env); err != nil {
		return err
	}
	return <-env.reply
}

func (s *Server) send(env envelope) error {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	select {
	case <-s.quit:
		return ErrStopped
	default:
	}
	// Admission control and the accept failpoint gate data batches only:
	// control envelopes (drain, checkpoint, restream...) are operator
	// actions, not load.
	if env.kind == ctrlNone && len(env.elems) > 0 {
		if s.admission != nil {
			if wait, ok := s.admission.admit(len(env.elems)); !ok {
				s.admission.refused.Add(int64(len(env.elems)))
				return &OverloadError{RetryAfter: wait}
			}
		}
		if err := fault.Check(fault.ServeAccept); err != nil {
			return err
		}
	}
	select {
	case s.mail <- env:
		return nil
	case <-s.quit:
		return ErrStopped
	}
}

// Stop shuts the server down: no new batches are accepted, already-queued
// batches are processed, an in-flight background restream is waited for
// and adopted (deterministic checkpoint-after-quiesce — its result is
// never discarded), the window is drained so every ingested vertex has a
// placement, and a final snapshot is published — durably, when the server
// was opened with persistence. Where/Route/Stats keep answering from that
// snapshot. Stop blocks until the loop has exited and is safe to call
// more than once.
func (s *Server) Stop() {
	s.once.Do(func() { close(s.quit) })
	<-s.done
}

// Abort hard-stops the server: no draining, no window assignment, no
// final checkpoint — the closest a process can get to crashing on
// purpose. Queued batches and in-flight callers are refused with
// ErrStopped; Where/Route/Stats keep answering from the last published
// snapshot. With persistence enabled the data directory is left exactly
// as the WAL last recorded it, which is the state a crash recovery must
// cope with — the crash-recovery tests are built on this. Safe to call
// more than once; an Abort that races Stop yields whichever came first.
func (s *Server) Abort() {
	s.aborted.Store(true)
	s.once.Do(func() { close(s.quit) })
	<-s.done
}

// Where returns the partition serving vertex v, lock-free. ok is false
// while v is unknown or still awaiting assignment in the window.
//
//loom:hotpath
func (s *Server) Where(v graph.VertexID) (partition.ID, bool) {
	return s.cur.Load().tab.get(v)
}

// RouteDecision is the outcome of routing a query's anchor vertices.
type RouteDecision struct {
	// Target is the partition owning the plurality of the known anchors,
	// or partition.Unassigned when none are known.
	Target partition.ID `json:"target"`
	// Known/Unknown count anchors with and without a placement.
	Known   int `json:"known"`
	Unknown int `json:"unknown"`
	// PerPartition counts known anchors per partition.
	PerPartition []int `json:"per_partition"`
}

// Route picks the shard a query touching the given vertices should be sent
// to: the partition owning the most of them (lowest ID on ties). Lock-free.
//
//loom:hotpath
func (s *Server) Route(vs ...graph.VertexID) RouteDecision {
	tab := s.cur.Load().tab
	//loom:allocok PerPartition escapes to the caller by contract; one small slice per routed query
	d := RouteDecision{Target: partition.Unassigned, PerPartition: make([]int, s.k)}
	for _, v := range vs {
		p, ok := tab.get(v)
		if !ok {
			d.Unknown++
			continue
		}
		d.Known++
		d.PerPartition[p]++
	}
	best := 0
	for i, c := range d.PerPartition {
		if c > best {
			best = c
			d.Target = partition.ID(i)
		}
	}
	return d
}

// Stats returns the statistics frozen at the last published epoch, plus
// the live mailbox depth. Safe for any goroutine.
func (s *Server) Stats() Stats {
	st := s.cur.Load().stats
	st.MailboxDepth = len(s.mail)
	st.MailboxCap = cap(s.mail)
	if s.admission != nil {
		st.Admission = &AdmissionStats{
			Rate:    s.admission.rate,
			Burst:   s.admission.burst,
			Refused: s.admission.refused.Load(),
		}
	}
	if s.persist.enabled {
		ps := &PersistStats{
			Enabled:    true,
			Dir:        s.persist.dir,
			Fsync:      s.persist.fsync.String(),
			WALRecords: s.persist.walRecords.Load(),
			WALBytes:   s.persist.walBytes.Load(),
			WALTail:    s.persist.walTail.Load(),
			Snapshots:  s.persist.snapshots.Load(),
			Wedged:     s.persist.wedged.Load(),
			Recover:    s.persist.recover,
		}
		switch {
		case ps.Wedged && s.heal.enabled:
			ps.State = "re-anchoring"
		case ps.Wedged:
			ps.State = "wedged"
		default:
			ps.State = "healthy"
		}
		ps.ReanchorAttempts = s.heal.attempts.Load()
		ps.Reanchors = s.heal.healed.Load()
		ps.NextRetryMS = s.heal.nextMS.Load()
		if e := s.persist.lastErr.Load(); e != nil {
			ps.LastErr = *e
		}
		st.Persist = ps
	}
	return st
}

// loop is the single writer: it owns the graph, the partitioner and the
// drift counters.
func (s *Server) loop() {
	defer close(s.done)
	for {
		select {
		case env := <-s.mail:
			s.handle(env)
		case out := <-s.restreamCh:
			s.adopt(out)
		case <-s.heal.retryCh:
			// nil when no retry is pending (blocks forever).
			s.reanchor()
		case <-s.quit:
			if s.aborted.Load() {
				s.abortShutdown()
			} else {
				s.shutdown()
			}
			return
		}
	}
}

// handle processes env plus an opportunistic burst of already-queued
// batches, sweeps fresh assignments into the table, publishes one snapshot
// and answers the drift monitor.
func (s *Server) handle(env envelope) {
	type pendingReply struct {
		ch  chan error
		err error
	}
	var replies []pendingReply
	add := func(e envelope) {
		err := s.process(e)
		// Restream replies wait for adoption; checkpoint replies wait for
		// the snapshot write below.
		if e.reply != nil && e.kind != ctrlRestream && e.kind != ctrlCheckpoint {
			replies = append(replies, pendingReply{ch: e.reply, err: err})
		}
	}
	add(env)
	// A checkpoint ends the burst: the snapshot below needs the cycle to
	// close at its window-empty barrier — coalescing further batches
	// behind it would re-populate the window before the write.
	for burst := 0; burst < drainBurst && env.kind != ctrlCheckpoint; burst++ {
		select {
		case next := <-s.mail:
			add(next)
			if next.kind == ctrlCheckpoint {
				burst = drainBurst
			}
		default:
			burst = drainBurst
		}
	}
	// Periodic checkpoint (Config.SnapshotEveryBatches): bound the WAL
	// tail by re-anchoring the log on a fresh snapshot after every N
	// accepted data batches — the same drain + barrier + reseed cycle an
	// explicit Checkpoint performs.
	if n := s.cfg.SnapshotEveryBatches; n > 0 && s.persist.store != nil && s.batchesSinceSnap >= n {
		s.batchesSinceSnap = 0
		s.periodicCheckpoint()
	}
	s.sweep()
	s.publish()
	for _, r := range replies {
		r.ch <- r.err
	}
	if s.wantSnapshot {
		s.wantSnapshot = false
		err := s.writeSnapshot()
		for _, ch := range s.snapWaits {
			ch <- err
		}
		s.snapWaits = s.snapWaits[:0]
		if err != nil {
			// A failed checkpoint snapshot on a wedged server leaves the
			// wedge in place; hand the repair to the retry timer.
			s.scheduleReanchor()
		}
	}
	s.maybeDriftRestream()
}

// process applies one envelope. The returned error joins the first few
// element rejections (nil when everything was accepted).
func (s *Server) process(env envelope) error {
	switch env.kind {
	case ctrlDrain:
		// The drain is part of the replayable history: it changes window
		// state and therefore every subsequent placement. Refuse it
		// outright while wedged — draining unlogged would diverge.
		if s.persist.store != nil && s.persist.wedged.Load() {
			return fmt.Errorf("%w: drain refused; checkpoint to repair", ErrWedged)
		}
		s.p.Finish()
		return s.logRecord(checkpoint.RecordDrain)
	case ctrlCheckpoint:
		// The barrier failpoint refuses the checkpoint request before it
		// drains or reseeds anything: the caller sees the error, the
		// serving state is untouched.
		if err := fault.Check(fault.ServeBarrier); err != nil {
			env.reply <- err
			return nil
		}
		s.p.Finish()
		// The barrier record makes the drain+reseed replayable when the
		// snapshot below fails. While wedged (or if this append itself
		// fails) the WAL cannot carry it, but the snapshot still can
		// repair everything, so keep going either way.
		if !s.persist.wedged.Load() {
			_ = s.logRecord(checkpoint.RecordBarrier)
		}
		if err := s.rebuildEngine(); err != nil {
			env.reply <- err
			return nil
		}
		s.wantSnapshot = true
		s.snapWaits = append(s.snapWaits, env.reply)
		return nil
	case ctrlExport:
		env.replyA <- s.p.Assignment().Clone()
		return nil
	case ctrlView:
		env.replyV <- s.buildView()
		return nil
	case ctrlRestream:
		switch {
		case s.restreaming:
			env.reply <- errors.New("serve: restream already in flight")
		case s.g.NumVertices() == 0:
			env.reply <- errors.New("serve: nothing to restream")
		default:
			s.manualWait = env.reply
			s.launchRestream(env.trigger)
		}
		return nil
	}
	logWAL := s.persist.store != nil
	// Once wedged, the log is missing applied elements; accepting more
	// would acknowledge durability the directory cannot deliver, and
	// recovery would reject replayed records referencing the gap.
	if logWAL && s.persist.wedged.Load() && len(env.elems) > 0 {
		s.rejected += int64(len(env.elems))
		return fmt.Errorf("%w: refused %d elements; checkpoint to repair", ErrWedged, len(env.elems))
	}
	var errs []error
	dropped := 0
	s.walScratch = s.walScratch[:0]
	for i := range env.elems {
		if err := s.applyElement(env.elems[i]); err != nil {
			s.rejected++
			if len(errs) < maxReportedErrors {
				errs = append(errs, err)
			} else {
				dropped++
			}
		} else {
			s.ingested++
			if logWAL {
				s.walScratch = append(s.walScratch, env.elems[i])
			}
		}
	}
	if dropped > 0 {
		errs = append(errs, fmt.Errorf("serve: %d further element errors", dropped))
	}
	if len(env.elems) > 0 {
		s.batchesSinceSnap++
	}
	// Durability before acknowledgement: the accepted slice of the batch
	// is in the WAL (fsynced per policy) before handle releases the reply.
	// Text and binary batches alike are logged as one frame-payload
	// record of exactly the accepted elements.
	if logWAL && len(s.walScratch) > 0 {
		if err := s.appendWAL(checkpoint.RecordBatch, s.walScratch); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// appendWAL writes one record and maintains the persistence counters. On
// failure the server wedges: the in-memory state now leads the log, so
// further appends are pointless until a snapshot re-anchors the history.
func (s *Server) appendWAL(kind checkpoint.RecordKind, elems []stream.Element) error {
	n, err := s.persist.store.Append(kind, elems)
	if err != nil {
		// The returned error wraps the underlying I/O failure, NOT
		// ErrWedged: the batch WAS applied in memory — it is the durability
		// acknowledgement that failed. Only refusals of later work (which
		// is not applied) carry ErrWedged.
		s.notePersistErr(err)
		s.persist.wedged.Store(true)
		s.scheduleReanchor()
		return fmt.Errorf("serve: wal append: %w", err)
	}
	s.persist.walRecords.Add(1)
	s.persist.walBytes.Add(int64(n))
	s.persist.walTail.Add(1)
	return nil
}

// logRecord appends an element-less marker record (drain, barrier).
func (s *Server) logRecord(kind checkpoint.RecordKind) error {
	if s.persist.store == nil {
		return nil
	}
	return s.appendWAL(kind, nil)
}

// applyElement validates one element against the canonical graph, then
// feeds graph and partitioner in lockstep. Validation up front keeps the
// two views consistent: anything the graph would reject never reaches the
// engine.
func (s *Server) applyElement(el stream.Element) error {
	switch el.Kind {
	case stream.VertexElement:
		if s.g.HasVertex(el.V) {
			return fmt.Errorf("serve: duplicate vertex %d", el.V)
		}
		// Labels must survive every codec (WAL records and snapshots
		// refuse what the text Export files could not replay); reject
		// the ones that cannot up front, so the accepted stream is
		// always durable and replayable.
		if !checkpoint.CodecSafeLabel(el.Label) {
			return fmt.Errorf("serve: vertex %d label %q is not codec-safe", el.V, el.Label)
		}
		s.g.AddVertex(el.V, el.Label)
		if err := s.p.AddVertex(el.V, el.Label); err != nil {
			s.g.RemoveVertex(el.V)
			return err
		}
		s.pending = append(s.pending, el.V)
		return nil
	case stream.EdgeElement:
		// graph.AddEdge validates self-loops, unknown endpoints and
		// duplicates before mutating, so it is the single gatekeeper here.
		if err := s.g.AddEdge(el.V, el.U); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if err := s.p.AddEdge(el.V, el.U); err != nil {
			s.g.RemoveEdge(el.V, el.U)
			return err
		}
		// A late edge between two already-assigned vertices is accounted
		// here; edges with a pending endpoint are accounted by sweep when
		// that endpoint lands in the table.
		if pv, ok := s.tab.get(el.V); ok {
			if pu, ok2 := s.tab.get(el.U); ok2 {
				s.observed++
				if pv != pu {
					s.cut++
				}
			}
		}
		if s.edgeStamp != nil {
			s.edgeStamp[mkEdgeKey(el.V, el.U)] = s.ingested
		}
		return nil
	case stream.RemoveVertexElement:
		if !s.g.HasVertex(el.V) {
			return fmt.Errorf("serve: remove of unknown vertex %d", el.V)
		}
		// Engine first: every canonical-graph vertex is window-resident or
		// assigned in the core (graph and partitioner are fed in lockstep),
		// so this cannot fail; if it ever did, no serve-side state has been
		// touched yet.
		if err := s.p.RemoveVertex(el.V); err != nil {
			return err
		}
		// Drift decrement before the graph forgets the adjacency, mirroring
		// the exactly-once accounting above and in sweep: an edge was
		// counted iff BOTH endpoints are in the published table, and table
		// entries only ever leave through this path (which decrements) or a
		// restream swap (which recounts from scratch).
		if pv, ok := s.tab.get(el.V); ok {
			s.g.EachNeighbor(el.V, func(u graph.VertexID) bool {
				if pu, ok2 := s.tab.get(u); ok2 {
					s.observed--
					if pu != pv {
						s.cut--
					}
				}
				return true
			})
		}
		if s.edgeStamp != nil {
			s.g.EachNeighbor(el.V, func(u graph.VertexID) bool {
				delete(s.edgeStamp, mkEdgeKey(el.V, u))
				return true
			})
		}
		// Tombstone the published placement and evict any sparse entry so
		// no reader — of this or any older table generation — resolves the
		// stale shard off a later recycled handle.
		s.tabClear(el.V)
		for i, pv := range s.pending {
			if pv == el.V {
				s.pending[i] = s.pending[len(s.pending)-1]
				s.pending = s.pending[:len(s.pending)-1]
				break
			}
		}
		s.g.RemoveVertex(el.V)
		return nil
	case stream.RemoveEdgeElement:
		if !s.g.HasEdge(el.V, el.U) {
			return fmt.Errorf("serve: remove of unknown edge {%d,%d}", el.V, el.U)
		}
		if err := s.p.RemoveEdge(el.V, el.U); err != nil {
			return err
		}
		s.g.RemoveEdge(el.V, el.U)
		// Undo the exactly-once drift accounting: counted iff both
		// endpoints are in the table (see the edge case above).
		if pv, ok := s.tab.get(el.V); ok {
			if pu, ok2 := s.tab.get(el.U); ok2 {
				s.observed--
				if pv != pu {
					s.cut--
				}
			}
		}
		if s.edgeStamp != nil {
			delete(s.edgeStamp, mkEdgeKey(el.V, el.U))
		}
		return nil
	}
	return fmt.Errorf("serve: unknown element kind %d", el.Kind)
}

// sweep mirrors freshly assigned vertices into the placement table and
// folds their edges into the drift estimate. Each assigned-assigned edge
// is counted exactly once: when its second endpoint enters the table.
func (s *Server) sweep() {
	cur := s.p.Assignment()
	for i := 0; i < len(s.pending); {
		v := s.pending[i]
		p := cur.Get(v)
		if p == partition.Unassigned {
			i++
			continue
		}
		s.g.EachNeighbor(v, func(u graph.VertexID) bool {
			if pu, ok := s.tab.get(u); ok {
				s.observed++
				if pu != p {
					s.cut++
				}
			}
			return true
		})
		s.tabSet(v, p)
		s.sinceRestream++
		s.pending[i] = s.pending[len(s.pending)-1]
		s.pending = s.pending[:len(s.pending)-1]
	}
}

// tabSet stores one placement, growing the dense region (as a fresh table
// generation, copy-on-write) when v outgrows it.
func (s *Server) tabSet(v graph.VertexID, p partition.ID) {
	t := s.tab
	if v >= 0 && int64(v) < int64(len(t.dense)) {
		atomic.StoreInt32(&t.dense[v], int32(p))
		return
	}
	if denseEligible(v, s.g.NumVertices()) {
		nd := newDense(grownDense(len(t.dense), v))
		// Plain reads of our own previously published values: the writer
		// is the only goroutine that ever stores, and readers only read.
		copy(nd, t.dense)
		nd[v] = int32(p)
		s.tab = &table{dense: nd, sparse: t.sparse, hasSparse: t.hasSparse}
		return
	}
	t.hasSparse.Store(true)
	t.sparse.Store(v, p)
}

// tabClear tombstones one placement. The dense slot (when v is in range)
// flips back to denseUnassigned atomically, and the sparse entry is
// deleted unconditionally — the sparse map is shared by every growth
// generation, so readers holding an older table observe the removal too.
// Either way, a vertex ID recycled by a later re-add starts unplaced.
func (s *Server) tabClear(v graph.VertexID) {
	t := s.tab
	if v >= 0 && int64(v) < int64(len(t.dense)) {
		atomic.StoreInt32(&t.dense[v], denseUnassigned)
	}
	if t.hasSparse.Load() {
		t.sparse.Delete(v)
	}
}

// publish freezes the current statistics into a new Snapshot epoch.
func (s *Server) publish() {
	s.epoch++
	cur := s.p.Assignment()
	st := Stats{
		Epoch:         s.epoch,
		K:             s.k,
		Ingested:      s.ingested,
		Rejected:      s.rejected,
		Vertices:      s.g.NumVertices(),
		Edges:         s.g.NumEdges(),
		Assigned:      cur.Len(),
		PendingWindow: s.g.NumVertices() - cur.Len(),
		ObservedEdges: s.observed,
		CutEdges:      s.cut,
		Imbalance:     metrics.VertexImbalance(cur),
		Sizes:         cur.Sizes(),
		Restreams:     s.restreams,
		RestreamLive:  s.restreaming,
		LastRestream:  s.lastRestream,
	}
	if s.observed > 0 {
		st.CutFraction = float64(s.cut) / float64(s.observed)
	}
	if s.winValid {
		st.WindowCutFraction = s.winRate
		st.WindowCutValid = true
	}
	s.cur.Store(&Snapshot{tab: s.tab, stats: st})
}

// seedEngine builds a fresh core.Partitioner from the effective config
// and seeds its assignment with a. This is the engine reseed performed at
// every barrier — restream adoption, explicit checkpoint, snapshot
// recovery — so all three leave the engine in the same state (empty
// window, fresh seeded RNG, restored placements): a recovered server
// continues exactly like one that rebuilt in place.
func (s *Server) seedEngine(a *partition.Assignment) (*core.Partitioner, error) {
	np, err := core.New(s.ccfg, s.trie)
	if err != nil {
		return nil, err
	}
	na := np.Assignment()
	var serr error
	a.EachVertex(func(v graph.VertexID, p partition.ID) {
		if err := na.Set(v, p); err != nil && serr == nil {
			serr = err
		}
	})
	if serr != nil {
		return nil, serr
	}
	return np, nil
}

// buildView deep-copies the assigned subgraph and its placements with
// fresh interners (like detachedClone: the identity layer is not
// concurrency-safe, so the copy must share nothing). Runs on the writer.
func (s *Server) buildView() *View {
	cur := s.p.Assignment()
	g := graph.NewWithCapacity(cur.Len())
	a := partition.MustNewAssignment(s.k)
	s.g.EachVertex(func(v graph.VertexID) bool {
		p := cur.Get(v)
		if p == partition.Unassigned {
			return true // window resident: not in the view
		}
		l, _ := s.g.Label(v)
		g.AddVertex(v, l)
		// p came from a live assignment over the same k; Set cannot fail.
		if err := a.Set(v, p); err != nil {
			panic(err)
		}
		return true
	})
	s.g.EachEdge(func(u, v graph.VertexID) bool {
		if g.HasVertex(u) && g.HasVertex(v) {
			// Endpoints were just added; AddEdge cannot fail.
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
		return true
	})
	return &View{Graph: g, Assignment: a, Epoch: s.epoch}
}

// periodicCheckpoint is the SnapshotEveryBatches trigger: the same drain,
// barrier record and engine reseed an explicit Checkpoint performs, with
// the snapshot written by handle after the next publish. Runs on the
// writer.
func (s *Server) periodicCheckpoint() {
	s.p.Finish()
	// While wedged the WAL cannot carry the barrier, but the snapshot
	// alone still re-anchors everything; keep going either way.
	if !s.persist.wedged.Load() {
		_ = s.logRecord(checkpoint.RecordBarrier)
	}
	if err := s.rebuildEngine(); err != nil {
		// Unreachable with a validated config; record and skip this cycle.
		s.notePersistErr(err)
		return
	}
	s.wantSnapshot = true
}

// rebuildEngine reseeds the live engine in place with its own current
// assignment (a checkpoint barrier). The pending list is left alone: the
// next sweep mirrors those vertices from the reseeded assignment.
func (s *Server) rebuildEngine() error {
	np, err := s.seedEngine(s.p.Assignment())
	if err != nil {
		return err
	}
	s.p = np
	return nil
}

// buildTable makes a fresh table generation holding exactly a's
// placements. Plain writes are safe: no reader sees the table until it is
// published.
func buildTable(a *partition.Assignment) *table {
	maxID := graph.VertexID(-1)
	a.EachVertex(func(v graph.VertexID, p partition.ID) {
		if v > maxID && denseEligible(v, a.Len()) {
			maxID = v
		}
	})
	nt := newTable(grownDense(0, maxID))
	a.EachVertex(func(v graph.VertexID, p partition.ID) {
		if v >= 0 && int64(v) < int64(len(nt.dense)) {
			nt.dense[v] = int32(p)
			return
		}
		nt.hasSparse.Store(true)
		nt.sparse.Store(v, p)
	})
	return nt
}

// writeSnapshot persists the current state. Callers must be at a
// window-empty barrier (everything assigned); the snapshot codec has no
// representation for window residents.
func (s *Server) writeSnapshot() error {
	if s.persist.store == nil {
		return nil
	}
	cur := s.p.Assignment()
	if cur.Len() != s.g.NumVertices() {
		err := fmt.Errorf("serve: checkpoint with %d window-resident vertices", s.g.NumVertices()-cur.Len())
		s.notePersistErr(err)
		return err
	}
	m := checkpoint.Meta{
		Epoch:            s.epoch,
		K:                s.k,
		ExpectedVertices: s.ccfg.Partition.ExpectedVertices,
		WindowSize:       s.ccfg.WindowSize,
		Threshold:        s.ccfg.Threshold,
		Slack:            s.ccfg.Partition.Slack,
		Seed:             s.ccfg.Partition.Seed,
		Ingested:         s.ingested,
		Rejected:         s.rejected,
		Cut:              s.cut,
		Observed:         s.observed,
		Restreams:        s.restreams,
		SinceRestream:    s.sinceRestream,
		EverRestream:     s.everRestream,
		VertsAtSwap:      s.vertsAtSwap,
	}
	if err := s.persist.store.WriteSnapshot(m, s.g, cur); err != nil {
		s.notePersistErr(err)
		return err
	}
	s.persist.snapshots.Add(1)
	// The snapshot captures everything the WAL may have missed and
	// rotates to a fresh segment: a wedged log is whole again and the
	// replayable tail is empty.
	s.persist.wedged.Store(false)
	s.persist.walTail.Store(0)
	s.batchesSinceSnap = 0
	return nil
}

func (s *Server) notePersistErr(err error) {
	msg := err.Error()
	s.persist.lastErr.Store(&msg)
}

// rollDriftWindow closes the open drift window once WindowEdges observed
// edges have accumulated in it, freezing that window's cut fraction as
// the rate the cut trigger compares.
func (s *Server) rollDriftWindow() {
	w := s.cfg.Drift.WindowEdges
	if w <= 0 {
		return
	}
	if n := s.observed - s.winStartObserved; n >= w {
		s.winRate = float64(s.cut-s.winStartCut) / float64(n)
		s.winValid = true
		s.winStartCut, s.winStartObserved = s.cut, s.observed
	}
}

// driftCutRate returns the cut fraction the trigger should compare:
// the last completed window's rate when windowing is configured (ok is
// false until one window has completed), the lifetime fraction otherwise.
func (s *Server) driftCutRate() (float64, bool) {
	if s.cfg.Drift.WindowEdges > 0 {
		return s.winRate, s.winValid
	}
	if s.observed == 0 {
		return 0, false
	}
	return float64(s.cut) / float64(s.observed), true
}

// maybeDriftRestream fires a background restream when the incremental
// estimators cross their thresholds.
func (s *Server) maybeDriftRestream() {
	s.rollDriftWindow()
	if s.restreaming {
		return
	}
	d := s.cfg.Drift
	if d.MaxCutFraction <= 0 && d.MaxImbalance <= 0 {
		return
	}
	cur := s.p.Assignment()
	if cur.Len() < d.MinAssigned {
		return
	}
	// The cooldown spaces restreams out; it does not gate the first one.
	if s.everRestream && s.sinceRestream < d.CooldownAssigned {
		return
	}
	trigger := ""
	rate, rateOK := s.driftCutRate()
	switch {
	case d.MaxCutFraction > 0 && rateOK && rate > d.MaxCutFraction:
		trigger = "cut"
	case d.MaxImbalance > 0 && metrics.VertexImbalance(cur) > d.MaxImbalance:
		trigger = "imbalance"
	}
	if trigger != "" {
		s.launchRestream(trigger)
	}
}

// launchRestream snapshots the graph and assignment into fully detached
// copies (fresh interners — the identity layer is not concurrency-safe)
// and restreams them on a background goroutine.
func (s *Server) launchRestream(trigger string) {
	s.restreaming = true
	s.everRestream = true
	s.sinceRestream = 0
	gc := s.restreamClone()
	prior := s.p.Assignment().Clone()
	cfg := s.cfg
	// Resolve the workload the loom heuristic scores against: the live
	// observed workload when a source is installed and has data, the
	// static Config.Workload otherwise. Resolved here, on the writer, so
	// the background goroutine never touches the source.
	w, wsrc := cfg.Workload, ""
	if h := cfg.Drift.Heuristic; h == "" || h == "loom" {
		wsrc = "static"
		if src := s.workloadSrc.Load(); src != nil {
			if ow := src.fn(); ow != nil && ow.Len() > 0 {
				w, wsrc = ow, "observed"
			}
		}
	}
	ch := s.restreamCh
	started := time.Now()
	go func() {
		res, trie, err := runRestream(cfg, w, gc, prior)
		ch <- &restreamOutcome{
			res: res, err: err, trigger: trigger, started: started,
			trie: trie, workload: wsrc,
		}
	}()
}

// runRestream executes the configured restream heuristic over the
// detached clone, scoring against workload w (loom heuristic only). It
// runs on a background goroutine and must not touch any writer-owned
// state. For the loom heuristic the returned trie is the private
// TPSTry++ built from w, ready to become the live trie at adoption.
func runRestream(cfg Config, w *query.Workload, gc *graph.Graph, prior *partition.Assignment) (*partition.RestreamResult, *motif.Trie, error) {
	d := cfg.Drift
	rcfg := partition.RestreamConfig{Passes: d.Passes, Priority: d.Priority, SelfWeight: d.SelfWeight}
	base := gc.Vertices()
	pcfg := cfg.Core.Partition
	pcfg.ExpectedVertices = gc.NumVertices()
	switch d.Heuristic {
	case "", "loom":
		trie, err := buildTrie(w, cfg.Alphabet, cfg.MaxMotifVertices)
		if err != nil {
			return nil, nil, err
		}
		ccfg := cfg.Core
		ccfg.Partition = pcfg
		res, err := core.Restream(gc, trie, ccfg, rcfg, base, prior)
		if err != nil {
			return nil, nil, err
		}
		return res, trie, nil
	case "ldg", "fennel":
		rs := &partition.Restreamer{
			Config: rcfg,
			NewPass: func(int) (partition.Streaming, error) {
				if d.Heuristic == "fennel" {
					return partition.NewFennel(partition.FennelConfig{Config: pcfg, ExpectedEdges: gc.NumEdges()})
				}
				return partition.NewLDG(pcfg)
			},
		}
		res, err := rs.Run(gc, base, prior)
		return res, nil, err
	}
	return nil, nil, fmt.Errorf("serve: unknown restream heuristic %q", d.Heuristic)
}

// adopt swaps a finished restream into the serving path: it drains the
// live window (a swap barrier — every ingested vertex gets a current
// placement), merges post-snapshot arrivals into the restreamed
// assignment, rebuilds the engine seeded with the merged placement, and
// republishes table and drift counters under a new epoch. The snapshot is
// published before any waiting Restream caller is released, so a waiter's
// next Where/Stats observes the swapped state.
func (s *Server) adopt(out *restreamOutcome) {
	s.restreaming = false
	s.sinceRestream = 0
	reply := s.manualWait
	s.manualWait = nil
	if out.err != nil {
		s.lastRestream = &RestreamReport{
			Trigger:        out.trigger,
			Err:            out.err.Error(),
			WorkloadSource: out.workload,
			DurationMS:     time.Since(out.started).Milliseconds(),
		}
		s.publish()
		if reply != nil {
			reply <- out.err
		}
		return
	}

	prev := s.p.Assignment().Clone()
	s.p.Finish()
	cur := s.p.Assignment()
	merged := out.res.Final
	// Deletions that raced the background pass: the detached clone
	// predates them, so scrub placements for vertices the live graph no
	// longer holds — a removed (and possibly later recycled) ID must
	// never inherit a shard from a stale clone.
	var gone []graph.VertexID
	merged.EachVertex(func(v graph.VertexID, _ partition.ID) {
		if !s.g.HasVertex(v) {
			gone = append(gone, v)
		}
	})
	for _, v := range gone {
		merged.Remove(v)
	}
	restreamed := merged.Len()
	// Vertices ingested after the snapshot keep their live placement.
	var mergeErr error
	cur.EachVertex(func(v graph.VertexID, p partition.ID) {
		if merged.Get(v) == partition.Unassigned {
			if err := merged.Set(v, p); err != nil && mergeErr == nil {
				mergeErr = err
			}
		}
	})
	if mergeErr != nil {
		// Unreachable with a validated config; keep serving the old state.
		report := &RestreamReport{
			Trigger:    out.trigger,
			Err:        mergeErr.Error(),
			DurationMS: time.Since(out.started).Milliseconds(),
		}
		s.lastRestream = report
		s.publish()
		if reply != nil {
			reply <- mergeErr
		}
		return
	}

	report := &RestreamReport{
		Trigger:        out.trigger,
		Passes:         out.res.Passes,
		Vertices:       restreamed,
		WorkloadSource: out.workload,
		DurationMS:     time.Since(out.started).Milliseconds(),
	}
	prev.EachVertex(func(v graph.VertexID, from partition.ID) {
		if to := merged.Get(v); to != partition.Unassigned && to != from {
			report.Moves = append(report.Moves, Move{V: v, From: from, To: to})
		}
	})
	sort.Slice(report.Moves, func(i, j int) bool { return report.Moves[i].V < report.Moves[j].V })
	// Only previously visible placements that changed cost data movement;
	// window residents assigned at the barrier were never published.
	report.Migrated = len(report.Moves)
	if n := merged.Len(); n > 0 {
		report.MigrationFraction = float64(report.Migrated) / float64(n)
	}

	// The migration budget gates automatically triggered swaps: when the
	// plan would move more of the graph than the operator allowed, keep
	// serving the old assignment. The check uses metrics.MigrationFraction
	// over the full pre/post assignments (vertices first assigned at the
	// barrier included), the same measure the offline evaluator reports.
	// The cooldown (sinceRestream was reset above) spaces out the retry.
	if bud := s.cfg.Drift.MaxMigrationFraction; bud > 0 && out.trigger != "manual" {
		if mf := metrics.MigrationFraction(prev, merged); mf > bud {
			report.BudgetRejected = true
			report.Err = fmt.Sprintf("serve: migration fraction %.4f exceeds budget %.4f", mf, bud)
			s.lastRestream = report
			// The window was drained above; mirror its placements before
			// republishing so Where stays consistent with Assigned.
			s.sweep()
			s.publish()
			if reply != nil {
				reply <- errors.New(report.Err)
			}
			return
		}
	}

	// Adopt the restream's trie as the live one (loom heuristic): the
	// pattern tracker and every later engine reseed then score against
	// the workload this restream was built from — the observed workload
	// once a source is installed, closing the feedback loop.
	if out.trie != nil {
		s.trie = out.trie
	}

	// Rebuild the engine around the merged assignment. ExpectedVertices
	// is re-planned from the observed arrival ratio since the last swap
	// (clamped to [1.25x, 4x] headroom over the current population, 2x
	// before a baseline exists) instead of blindly doubling: a plateaued
	// stream no longer inflates the capacity constraint, a fast-growing
	// one gets more headroom. The growth sticks in s.ccfg so later
	// barriers (checkpoints, recovery) rebuild with the same capacity.
	n := s.g.NumVertices()
	growth := 2.0
	if s.vertsAtSwap > 0 {
		growth = float64(n) / float64(s.vertsAtSwap)
		if growth < 1.25 {
			growth = 1.25
		}
		if growth > 4 {
			growth = 4
		}
	}
	if target := int(float64(n) * growth); s.ccfg.Partition.ExpectedVertices < target {
		s.ccfg.Partition.ExpectedVertices = target
	}
	s.vertsAtSwap = n
	report.ExpectedVertices = s.ccfg.Partition.ExpectedVertices
	np, err := s.seedEngine(merged)
	if err != nil {
		// Unreachable with a validated config; keep serving the old state.
		report.Err = err.Error()
		s.lastRestream = report
		s.publish()
		if reply != nil {
			reply <- err
		}
		return
	}
	na := np.Assignment()
	s.p = np
	s.pending = s.pending[:0]

	// Fresh table generation; the epoch flip makes the swap atomic for
	// readers.
	s.tab = buildTable(na)
	s.cut, s.observed = 0, 0
	s.g.EachEdge(func(u, v graph.VertexID) bool {
		pu, pv := na.Get(u), na.Get(v)
		if pu != partition.Unassigned && pv != partition.Unassigned {
			s.observed++
			if pu != pv {
				s.cut++
			}
		}
		return true
	})
	// The swap starts a fresh drift window: the recomputed counters are
	// the new baseline, and the pre-swap window rate no longer describes
	// the serving assignment.
	s.winStartCut, s.winStartObserved = s.cut, s.observed
	s.winRate, s.winValid = 0, false
	s.restreams++
	s.lastRestream = report
	s.publish()
	// The swap is a window-empty barrier right after an engine reseed:
	// exactly what a snapshot needs. Unlike a checkpoint, a swap is NOT
	// representable in the WAL (the merged assignment came from a
	// background pass), so if the write fails the log's timeline is now
	// behind the served state for good — wedge ingest until a snapshot
	// succeeds, exactly like a failed WAL append. Serving reads goes on.
	swapErr := fault.Check(fault.ServeSwap)
	if swapErr != nil && s.persist.store != nil {
		s.notePersistErr(swapErr)
	} else {
		swapErr = s.writeSnapshot()
	}
	if swapErr != nil && s.persist.store != nil {
		s.persist.wedged.Store(true)
		s.scheduleReanchor()
	}
	if reply != nil {
		reply <- nil
	}
}

// shutdown quiesces senders, drains the mailbox, assigns everything still
// in the window and publishes the final snapshot. Every batch that made it
// into the mailbox is processed and replied to; senders still deciding see
// the closed quit channel and return ErrStopped themselves.
func (s *Server) shutdown() {
	drainOne := func() bool {
		select {
		case env := <-s.mail:
			// A queued restream request would only launch work that is
			// guaranteed to be abandoned; refuse it instead.
			if env.kind == ctrlRestream {
				env.reply <- ErrStopped
				return true
			}
			err := s.process(env)
			// A checkpoint's reply waits for the final snapshot write
			// below (process put it on snapWaits); answering here would
			// report success before anything hit disk.
			if env.reply != nil && env.kind != ctrlCheckpoint {
				env.reply <- err
			}
			return true
		default:
			return false
		}
	}
	for {
		if drainOne() {
			continue
		}
		if s.inflight.Load() == 0 {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	for drainOne() {
	}
	// A restream in flight is waited for and adopted, never abandoned:
	// the worker always sends exactly one outcome, so this cannot hang,
	// and Stop's final state is deterministic — the drift-estimator
	// counters and the restreamed assignment survive instead of depending
	// on whether the swap won the race against shutdown. A waiting
	// Restream caller is released by adopt with the real outcome.
	if s.restreaming {
		s.adopt(<-s.restreamCh)
	} else {
		select {
		case out := <-s.restreamCh:
			s.adopt(out)
		default:
		}
	}
	s.p.Finish()
	s.sweep()
	s.publish()
	// Graceful shutdown checkpoint: a restart from the data directory
	// comes up warm with an empty WAL tail. The write error (if any)
	// reaches pending Checkpoint callers, and is recorded either way.
	err := s.writeSnapshot()
	s.wantSnapshot = false
	for _, ch := range s.snapWaits {
		ch <- err
	}
	s.snapWaits = s.snapWaits[:0]
	if s.persist.store != nil {
		if cerr := s.persist.store.Close(); cerr != nil {
			s.notePersistErr(cerr)
		}
	}
	if s.manualWait != nil {
		s.manualWait <- ErrStopped
		s.manualWait = nil
	}
}

// abortShutdown is the hard-stop path: refuse everything queued, quiesce
// senders, close the WAL without draining the window and without a final
// snapshot. See Abort.
func (s *Server) abortShutdown() {
	refuseOne := func() bool {
		select {
		case env := <-s.mail:
			if env.reply != nil {
				env.reply <- ErrStopped
			}
			if env.replyA != nil {
				env.replyA <- nil
			}
			if env.replyV != nil {
				env.replyV <- nil
			}
			return true
		default:
			return false
		}
	}
	for {
		if refuseOne() {
			continue
		}
		if s.inflight.Load() == 0 {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	for refuseOne() {
	}
	if s.manualWait != nil {
		s.manualWait <- ErrStopped
		s.manualWait = nil
	}
	for _, ch := range s.snapWaits {
		ch <- ErrStopped
	}
	s.snapWaits = s.snapWaits[:0]
	if s.persist.store != nil {
		if cerr := s.persist.store.Close(); cerr != nil {
			s.notePersistErr(cerr)
		}
	}
}

// restreamClone snapshots the graph for a background restream. With
// Config.DecaySpan set, edges whose last add is older than the span (in
// accepted elements) are left out of the clone: core.Restream and the
// ldg/fennel restreamers score only from the clone they are handed, so
// stale edges age out of restream scoring uniformly across heuristics
// while the canonical graph and the served placements keep them.
func (s *Server) restreamClone() *graph.Graph {
	if s.edgeStamp == nil {
		return detachedClone(s.g)
	}
	cutoff := s.ingested - s.cfg.DecaySpan
	c := graph.NewWithCapacity(s.g.NumVertices())
	s.g.EachVertex(func(v graph.VertexID) bool {
		l, _ := s.g.Label(v)
		c.AddVertex(v, l)
		return true
	})
	s.g.EachEdge(func(u, v graph.VertexID) bool {
		if s.edgeStamp[mkEdgeKey(u, v)] < cutoff {
			return true // aged out of scoring
		}
		// Endpoints were just added; AddEdge cannot fail.
		if err := c.AddEdge(u, v); err != nil {
			panic(err)
		}
		return true
	})
	return c
}

// detachedClone deep-copies g with fresh interners, so a background
// goroutine can read it while the writer keeps mutating the original
// (graph.Clone shares the label interner, which is not concurrency-safe).
func detachedClone(g *graph.Graph) *graph.Graph {
	c := graph.NewWithCapacity(g.NumVertices())
	g.EachVertex(func(v graph.VertexID) bool {
		l, _ := g.Label(v)
		c.AddVertex(v, l)
		return true
	})
	g.EachEdge(func(u, v graph.VertexID) bool {
		// Endpoints were just added; AddEdge cannot fail.
		if err := c.AddEdge(u, v); err != nil {
			panic(err)
		}
		return true
	})
	return c
}
