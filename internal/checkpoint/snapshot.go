// Package checkpoint persists the online serving state of internal/serve:
// full snapshots of the canonical graph + assignment + serve metadata,
// plus an incremental write-ahead log of accepted ingest batches layered
// on top. A Store manages the data-directory layout (snapshot rotation,
// WAL segments, pruning); Open recovers the latest intact snapshot and
// the WAL tail behind it so a restarted server comes up warm instead of
// replaying its whole stream.
//
// Both files share one binary format: CRC-guarded wire frames (see
// internal/wire) whose element bodies are internal/stream's binary frame
// payloads. A WAL batch record carries the accepted elements of one
// batch; a snapshot carries the graph as vertex, then edge elements. The
// previous text format (WAL magic "loomwal1", snapshot header
// "loom-snapshot 1") is refused by Open, never converted. Everything is
// crash-tolerant by construction: snapshots are written to a temp file
// and renamed into place, a snapshot without its end section is skipped
// in favour of the previous one, and a torn final WAL record is
// truncated, not fatal.
package checkpoint

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/stream"
)

// Meta is the serve state captured alongside the graph and assignment.
// Snapshots are taken at window-empty barriers (restream swap, explicit
// checkpoint, graceful stop), so no window-resident state needs encoding.
type Meta struct {
	// Epoch is the published snapshot epoch at capture time.
	Epoch uint64
	// K is the partition count; recovery refuses a mismatching server.
	K int
	// ExpectedVertices is the effective LDG capacity parameter at capture
	// time (it grows at restream swaps); recovery seeds the rebuilt engine
	// with it so post-restart placements match an uninterrupted run.
	ExpectedVertices int
	// WindowSize, Threshold, Slack and Seed record the rest of the
	// partitioner configuration for operator sanity checks.
	WindowSize int
	Threshold  float64
	Slack      float64
	Seed       int64
	// Ingested/Rejected are the lifetime element counters.
	Ingested int64
	Rejected int64
	// Cut/Observed are the incremental drift-estimator counters.
	Cut      int
	Observed int
	// Restreams, SinceRestream and EverRestream restore the drift
	// monitor's trigger state.
	Restreams     int
	SinceRestream int
	EverRestream  bool
	// VertsAtSwap is the vertex count at the last restream swap — the
	// baseline of the adaptive ExpectedVertices re-plan. Persisted so a
	// recovered server re-plans the next swap exactly like an
	// uninterrupted one (0 before the first swap, and in snapshots
	// written before the field existed).
	VertsAtSwap int
	// NextSeq is the sequence number of the first WAL record not covered
	// by this snapshot: recovery replays records with seq >= NextSeq.
	NextSeq uint64
}

// A snapshot file is a header line followed by wire frames (see
// scanFrames), one per section; each frame payload is
//
//	u8 section | body
//
// in this order:
//
//	meta        exactly once: the Meta fields as u64 LE words
//	graph       zero or more: frame payloads carrying every vertex
//	            element (ascending id), then every edge element
//	            (normalized, ascending) — graph.Write's order, so the
//	            restored adjacency, and every placement, is unchanged
//	assignment  one or more: uvarint k | (varint vertex | uvarint part)*
//	            in ascending vertex order
//	end         exactly once, empty: without it the snapshot is torn
const (
	snapMagic = "loom-snapshot 2\n"
	// snapMagicV1 is the previous, text snapshot header; Open refuses it.
	snapMagicV1 = "loom-snapshot 1\n"

	sectionMeta       = 1
	sectionGraph      = 2
	sectionAssignment = 3
	sectionEnd        = 4

	// snapChunk bounds the elements or placements in one section frame.
	snapChunk = 4096
	// maxSnapshotK bounds the partition count a snapshot may claim, so a
	// crafted section cannot drive a giant per-partition allocation.
	maxSnapshotK = 1 << 20
)

// snapWriter frames snapshot sections into one reused buffer.
type snapWriter struct {
	w     *bufio.Writer
	buf   []byte
	enc   stream.FrameEncoder
	elems []stream.Element // the graph section being filled
}

// begin starts a section frame in the buffer and returns it for the body
// to be appended.
func (sw *snapWriter) begin(section byte) []byte {
	return append(append(sw.buf[:0], frameHeaderPad[:]...), section)
}

// finish stamps and writes the section frame built in buf.
func (sw *snapWriter) finish(buf []byte) error {
	finishFrame(buf)
	sw.buf = buf
	_, err := sw.w.Write(buf)
	return err
}

// addGraph appends el to the graph section being filled, writing the
// section once it holds snapChunk elements.
func (sw *snapWriter) addGraph(el stream.Element) error {
	sw.elems = append(sw.elems, el)
	if len(sw.elems) < snapChunk {
		return nil
	}
	return sw.flushGraph()
}

// flushGraph writes the pending graph elements, if any, as one section.
func (sw *snapWriter) flushGraph() error {
	if len(sw.elems) == 0 {
		return nil
	}
	buf, err := sw.enc.AppendPayload(sw.begin(sectionGraph), sw.elems)
	sw.elems = sw.elems[:0]
	if err != nil {
		return err
	}
	return sw.finish(buf)
}

// WriteSnapshot serialises one snapshot to w.
func WriteSnapshot(w io.Writer, m Meta, g *graph.Graph, a *partition.Assignment) error {
	sw := &snapWriter{w: bufio.NewWriter(w)}
	if _, err := sw.w.WriteString(snapMagic); err != nil {
		return err
	}
	if err := sw.finish(appendMeta(sw.begin(sectionMeta), m)); err != nil {
		return err
	}
	vs := g.Vertices()
	for _, v := range vs {
		l, _ := g.Label(v)
		if err := sw.addGraph(stream.Element{Kind: stream.VertexElement, V: v, Label: l}); err != nil {
			return err
		}
	}
	// Edges in graph.Write's order, (u,v) with u < v ascending, built
	// from each vertex's sorted neighbours rather than one big sorted
	// edge list.
	var nbrs []graph.VertexID
	for _, u := range vs {
		nbrs = g.AppendNeighbors(nbrs[:0], u)
		for _, v := range nbrs {
			if v <= u {
				continue
			}
			if err := sw.addGraph(stream.Element{Kind: stream.EdgeElement, V: u, U: v}); err != nil {
				return err
			}
		}
	}
	if err := sw.flushGraph(); err != nil {
		return err
	}

	type place struct {
		v graph.VertexID
		p partition.ID
	}
	places := make([]place, 0, a.Len())
	a.EachVertex(func(v graph.VertexID, p partition.ID) {
		places = append(places, place{v, p})
	})
	slices.SortFunc(places, func(x, y place) int { return cmp.Compare(x.v, y.v) })
	// At least one assignment section, so k survives an empty placement.
	for i := 0; i == 0 || i < len(places); i += snapChunk {
		buf := binary.AppendUvarint(sw.begin(sectionAssignment), uint64(a.K()))
		for _, pl := range places[i:min(i+snapChunk, len(places))] {
			buf = binary.AppendVarint(buf, int64(pl.v))
			buf = binary.AppendUvarint(buf, uint64(pl.p))
		}
		if err := sw.finish(buf); err != nil {
			return err
		}
	}
	if err := sw.finish(sw.begin(sectionEnd)); err != nil {
		return err
	}
	return sw.w.Flush()
}

// metaWords is the meta section body's length in 64-bit words.
const metaWords = 16

// appendMeta encodes the meta section body: every field as one u64 LE
// word (signed integers two's complement, floats as IEEE bits, the bool
// as 0 or 1).
func appendMeta(dst []byte, m Meta) []byte {
	ever := uint64(0)
	if m.EverRestream {
		ever = 1
	}
	for _, w := range [metaWords]uint64{
		m.Epoch, uint64(m.K), uint64(m.ExpectedVertices), uint64(m.WindowSize),
		math.Float64bits(m.Threshold), math.Float64bits(m.Slack),
		uint64(m.Seed), uint64(m.Ingested), uint64(m.Rejected),
		uint64(m.Cut), uint64(m.Observed), uint64(m.Restreams), uint64(m.SinceRestream),
		ever, uint64(m.VertsAtSwap), m.NextSeq,
	} {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// readMeta decodes the meta section body.
func readMeta(body []byte) (Meta, error) {
	if len(body) != 8*metaWords {
		return Meta{}, fmt.Errorf("checkpoint: snapshot meta section is %d bytes, want %d", len(body), 8*metaWords)
	}
	w := func(i int) uint64 { return binary.LittleEndian.Uint64(body[8*i:]) }
	m := Meta{
		Epoch: w(0), K: int(w(1)), ExpectedVertices: int(w(2)), WindowSize: int(w(3)),
		Threshold: math.Float64frombits(w(4)), Slack: math.Float64frombits(w(5)),
		Seed: int64(w(6)), Ingested: int64(w(7)), Rejected: int64(w(8)),
		Cut: int(w(9)), Observed: int(w(10)), Restreams: int(w(11)), SinceRestream: int(w(12)),
		EverRestream: w(13) == 1, VertsAtSwap: int(w(14)), NextSeq: w(15),
	}
	return m, nil
}

// ReadSnapshot parses and validates one snapshot. It fails (never panics)
// on a bad header, a torn or checksum-failing frame, a missing end
// section, or malformed sections — the caller falls back to an older
// snapshot.
func ReadSnapshot(r io.Reader) (Meta, *graph.Graph, *partition.Assignment, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Meta{}, nil, nil, err
	}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return Meta{}, nil, nil, errors.New("checkpoint: bad snapshot header")
	}
	var (
		m     Meta
		g     = graph.New()
		a     *partition.Assignment
		dec   stream.FrameDecoder
		batch stream.Batch
		last  byte // the previous section; sections never go backwards
	)
	_, torn, err := scanFrames(data, len(snapMagic), 1, func(_ int, payload []byte) error {
		section, body := payload[0], payload[1:]
		// Meta comes first and only first; nothing follows the end.
		if section < last || last == sectionEnd || (last == 0) != (section == sectionMeta) {
			return fmt.Errorf("checkpoint: snapshot section %d out of order after %d", section, last)
		}
		last = section
		switch section {
		case sectionMeta:
			var err error
			m, err = readMeta(body)
			return err
		case sectionGraph:
			return readGraphSection(g, &dec, &batch, body)
		case sectionAssignment:
			var err error
			a, err = readAssignmentSection(a, body)
			return err
		case sectionEnd:
			if len(body) != 0 {
				return errors.New("checkpoint: snapshot end section carries a body")
			}
			return nil
		}
		return fmt.Errorf("checkpoint: unknown snapshot section %d", section)
	})
	switch {
	case err != nil:
		return Meta{}, nil, nil, err
	case torn || last != sectionEnd:
		// A torn frame, or no end section: a write cut short.
		return Meta{}, nil, nil, errors.New("checkpoint: snapshot torn (no intact end section)")
	case a == nil:
		return Meta{}, nil, nil, errors.New("checkpoint: snapshot has no assignment section")
	case m.K != 0 && a.K() != m.K:
		return Meta{}, nil, nil, fmt.Errorf("checkpoint: assignment k=%d disagrees with metadata k=%d", a.K(), m.K)
	}
	return m, g, a, nil
}

// readGraphSection applies one graph section's elements to g.
func readGraphSection(g *graph.Graph, dec *stream.FrameDecoder, b *stream.Batch, body []byte) error {
	b.Payload = body
	if err := dec.DecodePayload(b); err != nil {
		return fmt.Errorf("checkpoint: graph section: %w", err)
	}
	if b.Deduped > 0 {
		return fmt.Errorf("checkpoint: graph section: %w", stream.ErrFrameDuplicate)
	}
	for _, el := range b.Elems {
		switch el.Kind {
		case stream.VertexElement:
			if g.HasVertex(el.V) {
				return fmt.Errorf("checkpoint: graph section: duplicate vertex %d", el.V)
			}
			g.AddVertex(el.V, el.Label)
		case stream.EdgeElement:
			if err := g.AddEdge(el.V, el.U); err != nil {
				return fmt.Errorf("checkpoint: graph section: %w", err)
			}
		default:
			return fmt.Errorf("checkpoint: graph section: element kind %d", el.Kind)
		}
	}
	return nil
}

// readAssignmentSection applies one assignment section to a, creating it
// at the first section.
func readAssignmentSection(a *partition.Assignment, body []byte) (*partition.Assignment, error) {
	bad := errors.New("checkpoint: malformed snapshot assignment section")
	k, n := binary.Uvarint(body)
	if n <= 0 || k == 0 || k > maxSnapshotK {
		return nil, bad
	}
	if a == nil {
		var err error
		if a, err = partition.NewAssignment(int(k)); err != nil {
			return nil, err
		}
	} else if uint64(a.K()) != k {
		return nil, bad
	}
	for p := body[n:]; len(p) > 0; {
		v, n := binary.Varint(p)
		if n <= 0 {
			return nil, bad
		}
		p = p[n:]
		part, n := binary.Uvarint(p)
		if n <= 0 || part >= k {
			return nil, bad
		}
		p = p[n:]
		if err := a.Set(graph.VertexID(v), partition.ID(part)); err != nil {
			return nil, err
		}
	}
	return a, nil
}
