package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/stream"
)

func testGraphAssignment(t testing.TB) (*graph.Graph, *partition.Assignment) {
	t.Helper()
	g := graph.New()
	for i, l := range []graph.Label{"a", "b", "a", "c", "b"} {
		g.AddVertex(graph.VertexID(i), l)
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	a := partition.MustNewAssignment(3)
	for i, p := range []partition.ID{0, 1, 2, 0, 1} {
		if err := a.Set(graph.VertexID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	return g, a
}

func testMeta() Meta {
	return Meta{
		Epoch: 42, K: 3, ExpectedVertices: 1024, WindowSize: 64,
		Threshold: 0.05, Slack: 1.2, Seed: 7,
		Ingested: 10, Rejected: 2, Cut: 3, Observed: 5,
		Restreams: 1, SinceRestream: 4, EverRestream: true, NextSeq: 17,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g, a := testGraphAssignment(t)
	m := testMeta()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, m, g, a); err != nil {
		t.Fatalf("write: %v", err)
	}
	gm, gg, ga, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if gm != m {
		t.Fatalf("meta round-trip:\n got %+v\nwant %+v", gm, m)
	}
	if !gg.Equal(g) {
		t.Fatal("graph did not round-trip")
	}
	if ga.K() != a.K() || ga.Len() != a.Len() {
		t.Fatalf("assignment k=%d len=%d, want k=%d len=%d", ga.K(), ga.Len(), a.K(), a.Len())
	}
	a.EachVertex(func(v graph.VertexID, p partition.ID) {
		if ga.Get(v) != p {
			t.Fatalf("assignment Get(%d) = %d, want %d", v, ga.Get(v), p)
		}
	})
}

// TestSnapshotRestoresTextCodecAdjacency: a restored graph holds every
// adjacency list in the order graph.Read gives a graph.Write dump of the
// same graph — the order recovery had with text snapshots, which the
// placements after a restore depend on.
func TestSnapshotRestoresTextCodecAdjacency(t *testing.T) {
	g := graph.New()
	const n = 300
	for i := 0; i < n; i++ {
		g.AddVertex(graph.VertexID((i*7919)%n), graph.Label([]string{"a", "b", "c"}[i%3]))
	}
	for i := 0; i < 3*n; i++ {
		u, w := graph.VertexID((i*31)%n), graph.VertexID((i*17+5)%n)
		if u != w && !g.HasEdge(u, w) {
			if err := g.AddEdge(w, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := partition.MustNewAssignment(testMeta().K)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, testMeta(), g, a); err != nil {
		t.Fatal(err)
	}
	_, got, _, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := graph.Write(&text, g); err != nil {
		t.Fatal(err)
	}
	want, err := graph.Read(&text)
	if err != nil {
		t.Fatal(err)
	}
	adjacency := func(g *graph.Graph, v graph.VertexID) []graph.VertexID {
		var out []graph.VertexID
		g.EachNeighbor(v, func(u graph.VertexID) bool { out = append(out, u); return true })
		return out
	}
	for _, v := range want.Vertices() {
		if w, h := adjacency(want, v), adjacency(got, v); !slices.Equal(w, h) {
			t.Fatalf("vertex %d adjacency %v, want %v", v, h, w)
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	g, a := testGraphAssignment(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, testMeta(), g, a); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncation anywhere must fail (missing or mismatching footer).
	for _, cut := range []int{1, len(good) / 2, len(good) - 2} {
		if _, _, _, err := ReadSnapshot(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncated snapshot at %d accepted", cut)
		}
	}
	// A flipped byte in the body must fail the checksum.
	bad := append([]byte(nil), good...)
	bad[len(good)/2] ^= 0x40
	if _, _, _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted snapshot accepted")
	}
}

func batch(elems ...stream.Element) []stream.Element { return elems }

func v(id graph.VertexID, l graph.Label) stream.Element {
	return stream.Element{Kind: stream.VertexElement, V: id, Label: l}
}

func e(u, vv graph.VertexID) stream.Element {
	return stream.Element{Kind: stream.EdgeElement, V: u, U: vv}
}

// elemsEqual ignores Seq, which the WAL does not persist (the decoder
// renumbers within each record).
func elemsEqual(a, b []stream.Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].V != b[i].V || a[i].U != b[i].U || a[i].Label != b[i].Label {
			return false
		}
	}
	return true
}

func TestWALRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if rec.HasSnapshot || len(rec.Tail) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	batches := [][]stream.Element{
		batch(v(0, "a"), v(1, "b"), e(0, 1)),
		batch(v(2, "c"), e(2, 0)),
	}
	for _, b := range batches {
		if _, err := st.Append(RecordBatch, b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Append(RecordDrain, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(RecordBatch, batch(v(3, "a"))); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything replays in order.
	st2, rec2, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Tail) != 4 || rec2.TornTail {
		t.Fatalf("recovered %d records (torn=%v), want 4 intact", len(rec2.Tail), rec2.TornTail)
	}
	for i, r := range rec2.Tail {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if !elemsEqual(rec2.Tail[0].Elems, batches[0]) || !elemsEqual(rec2.Tail[1].Elems, batches[1]) {
		t.Fatalf("batches did not round-trip: %+v", rec2.Tail)
	}
	if rec2.Tail[2].Kind != RecordDrain {
		t.Fatalf("record 2 kind = %d, want drain", rec2.Tail[2].Kind)
	}
	st2.Close()

	// Tear the final record: recovery skips it, keeps the rest, and
	// appending after recovery overwrites the torn bytes.
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	st3, rec3, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Tail) != 3 || !rec3.TornTail {
		t.Fatalf("after tear: %d records, torn=%v; want 3, true", len(rec3.Tail), rec3.TornTail)
	}
	if _, err := st3.Append(RecordBatch, batch(v(9, "z"))); err != nil {
		t.Fatal(err)
	}
	st3.Close()
	_, rec4, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec4.Tail) != 4 || rec4.TornTail {
		t.Fatalf("after re-append: %d records, torn=%v", len(rec4.Tail), rec4.TornTail)
	}
	if rec4.Tail[3].Seq != 3 || !elemsEqual(rec4.Tail[3].Elems, batch(v(9, "z"))) {
		t.Fatalf("re-appended record = %+v", rec4.Tail[3])
	}
}

func TestStoreSnapshotRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	g, a := testGraphAssignment(t)
	if _, err := st.Append(RecordBatch, batch(v(0, "a"))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(RecordBatch, batch(v(1, "b"))); err != nil {
		t.Fatal(err)
	}
	m := testMeta()
	if err := st.WriteSnapshot(m, g, a); err != nil {
		t.Fatal(err)
	}
	// Two records after the snapshot form the tail.
	if _, err := st.Append(RecordBatch, batch(v(2, "c"))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(RecordDrain, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !rec.HasSnapshot {
		t.Fatal("snapshot not recovered")
	}
	if rec.Meta.NextSeq != 2 || rec.Meta.Epoch != m.Epoch {
		t.Fatalf("meta = %+v", rec.Meta)
	}
	if !rec.Graph.Equal(g) {
		t.Fatal("graph not recovered")
	}
	if len(rec.Tail) != 2 || rec.Tail[0].Seq != 2 || rec.Tail[1].Kind != RecordDrain {
		t.Fatalf("tail = %+v", rec.Tail)
	}
	if st2.NextSeq() != 4 {
		t.Fatalf("next seq = %d, want 4", st2.NextSeq())
	}
}

func TestStoreSkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	g, a := testGraphAssignment(t)
	if _, err := st.Append(RecordBatch, batch(v(0, "a"))); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(testMeta(), g, a); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(RecordBatch, batch(v(1, "b"))); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(testMeta(), g, a); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Corrupt the newest snapshot: recovery falls back to the previous
	// one and replays the longer tail.
	snaps, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("snapshots: %v %v", snaps, err)
	}
	newest := snaps[len(snaps)-1]
	if err := os.WriteFile(newest, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, rec, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !rec.HasSnapshot || rec.SkippedSnapshots != 1 {
		t.Fatalf("recovered = %+v", rec)
	}
	if rec.Meta.NextSeq != 1 || len(rec.Tail) != 1 || rec.Tail[0].Seq != 1 {
		t.Fatalf("fallback recovery: meta=%+v tail=%+v", rec.Meta, rec.Tail)
	}
}

func TestStorePrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	g, a := testGraphAssignment(t)
	for i := 0; i < 4; i++ {
		if _, err := st.Append(RecordBatch, batch(v(graph.VertexID(100+i), "a"))); err != nil {
			t.Fatal(err)
		}
		if err := st.WriteSnapshot(testMeta(), g, a); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"))
	if len(snaps) != keepSnapshots {
		t.Fatalf("%d snapshots on disk, want %d", len(snaps), keepSnapshots)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	// Segments older than the oldest kept snapshot are gone: at most one
	// per kept generation plus the active one.
	if len(segs) > keepSnapshots+1 {
		t.Fatalf("%d segments on disk: %v", len(segs), segs)
	}
	// The pruned directory still recovers.
	st2, rec, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
	if !rec.HasSnapshot || len(rec.Tail) != 0 {
		t.Fatalf("recovered = %+v", rec)
	}
}

// TestTornTailCoveredBySnapshotStartsFreshSegment: under SyncNone a crash
// can tear away records the (always fsynced) snapshot already covers.
// Recovery must not append into the shortened segment (that would leave
// an in-segment sequence gap the NEXT recovery rejects); it starts a
// fresh segment at the snapshot's next sequence, and the directory stays
// recoverable across further restarts.
func TestTornTailCoveredBySnapshotStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	g, a := testGraphAssignment(t)
	for i := 0; i < 4; i++ {
		if _, err := st.Append(RecordBatch, batch(v(graph.VertexID(i), "a"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot(testMeta(), g, a); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Simulate the SyncNone crash: the post-snapshot segment vanished,
	// and the pre-snapshot segment (recreated here, since rotation
	// legitimately pruned it) survives with only two of its four covered
	// records plus a torn sliver.
	if err := os.Remove(filepath.Join(dir, segName(4))); err != nil {
		t.Fatal(err)
	}
	seg0 := filepath.Join(dir, segName(0))
	w, err := createSegment(seg0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := w.append(RecordBatch, batch(v(graph.VertexID(i), "a")), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatalf("recovery refused a fully snapshot-covered torn tail: %v", err)
	}
	if !rec.HasSnapshot || len(rec.Tail) != 0 {
		t.Fatalf("recovered %+v, want snapshot with empty tail", rec)
	}
	if st2.NextSeq() != 4 {
		t.Fatalf("next seq = %d, want 4", st2.NextSeq())
	}
	if _, err := st2.Append(RecordBatch, batch(v(9, "z"))); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	// The follow-up recovery sees a gapless history: snapshot + seq 4.
	st3, rec3, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer st3.Close()
	if len(rec3.Tail) != 1 || rec3.Tail[0].Seq != 4 {
		t.Fatalf("second recovery tail = %+v", rec3.Tail)
	}
}

// TestBrokenWriterRepairedBySnapshot: a snapshot that clears a wedge must
// also replace a broken WAL writer, even when no rotation would otherwise
// happen — otherwise the wedge re-arms on the very next append.
func TestBrokenWriterRepairedBySnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	g, a := testGraphAssignment(t)
	// Sabotage the handle: the append's write and its rollback both fail,
	// breaking the writer while s.next still equals the segment start.
	if err := st.wal.f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(RecordBatch, batch(v(0, "a"))); err == nil {
		t.Fatal("append on sabotaged writer succeeded")
	}
	if !st.wal.broken {
		t.Fatal("writer not broken")
	}
	if err := st.WriteSnapshot(testMeta(), g, a); err != nil {
		t.Fatalf("snapshot on broken writer: %v", err)
	}
	if _, err := st.Append(RecordBatch, batch(v(0, "a"))); err != nil {
		t.Fatalf("append after repairing snapshot: %v", err)
	}
	st.Close()
	_, rec, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.HasSnapshot || len(rec.Tail) != 1 {
		t.Fatalf("recovered %+v, want snapshot + 1 record", rec)
	}
}

// TestWALWriterFailedWriteRollsBack: a failed frame write must not leave
// torn bytes in front of later appends (which recovery could then never
// reach), and a writer that cannot roll back refuses further appends.
func TestWALWriterFailedWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(0))
	w, err := createSegment(path, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(RecordBatch, batch(v(1, "a")), nil); err != nil {
		t.Fatal(err)
	}
	// Sabotage the file handle: the next write fails, the rollback
	// (truncate on a closed file) fails too, and the writer breaks.
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(RecordBatch, batch(v(2, "b")), nil); err == nil {
		t.Fatal("append on closed file succeeded")
	}
	if !w.broken {
		t.Fatal("writer did not break after a failed rollback")
	}
	if _, err := w.append(RecordBatch, batch(v(3, "c")), nil); err == nil {
		t.Fatal("broken writer accepted another append")
	}
	// The record appended before the sabotage is intact on disk.
	sc, err := readSegmentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.recs) != 1 || sc.torn {
		t.Fatalf("scan after failure: %d records, torn=%v", len(sc.recs), sc.torn)
	}
	w.f = nil // already closed
}

// encodeRecord frames one record as the WAL writer would at sequence seq.
func encodeRecord(seq uint64, kind RecordKind, elems []stream.Element) ([]byte, error) {
	w := walWriter{next: seq}
	frame, err := w.encodeRecord(kind, elems, nil)
	return append([]byte(nil), frame...), err
}

func TestBarrierRecordRoundTrip(t *testing.T) {
	frame, err := encodeRecord(5, RecordBarrier, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodePayload(frame[frameHeaderSize:])
	if err != nil || rec.Kind != RecordBarrier || rec.Seq != 5 {
		t.Fatalf("barrier round-trip: %+v, %v", rec, err)
	}
}

func TestEncodeRejectsUnsafeLabels(t *testing.T) {
	// The decoders split/trim on unicode.IsSpace, so the predicate must
	// reject every such rune — not just ASCII blanks.
	for _, l := range []graph.Label{"", "a b", "a\tb", "a\nb", "a\vb", "b\v", "a\u00a0b", "a\u2028b"} {
		if CodecSafeLabel(l) {
			t.Errorf("CodecSafeLabel(%q) = true", l)
		}
		if _, err := encodeRecord(0, RecordBatch, batch(v(1, l))); err == nil {
			t.Errorf("label %q encoded without error", l)
		}
	}
	if !CodecSafeLabel("ok-label_1") {
		t.Error("plain label rejected")
	}
}

// TestWALBinaryRecordRoundTrip: AppendBinary writes the very record
// Append writes for the elements its payload carries — one batch record
// kind, byte for byte — and both replay as the same elements, in
// sequence.
func TestWALBinaryRecordRoundTrip(t *testing.T) {
	elems := batch(v(2, "c"), v(3, "a"), e(2, 3), e(3, 0))
	var enc stream.FrameEncoder
	payload, err := enc.AppendPayload(nil, elems)
	if err != nil {
		t.Fatal(err)
	}
	segment := func(binary bool) []byte {
		dir := t.TempDir()
		st, _, err := Open(dir, SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		if binary {
			_, err = st.AppendBinary(payload)
		} else {
			_, err = st.Append(RecordBatch, elems)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(RecordDrain, nil); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec, err := Open(dir, SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Tail) != 2 || rec.TornTail {
			t.Fatalf("recovered %d records (torn=%v), want 2 intact", len(rec.Tail), rec.TornTail)
		}
		if rec.Tail[0].Kind != RecordBatch || !elemsEqual(rec.Tail[0].Elems, elems) {
			t.Fatalf("batch record did not round-trip: %+v", rec.Tail[0])
		}
		if rec.Tail[1].Kind != RecordDrain || rec.Tail[1].Seq != 1 {
			t.Fatalf("record 1 = %+v, want drain at seq 1", rec.Tail[1])
		}
		data, err := os.ReadFile(filepath.Join(dir, segName(0)))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if text, bin := segment(false), segment(true); !bytes.Equal(text, bin) {
		t.Fatalf("Append and AppendBinary segments differ:\n%x\n%x", text, bin)
	}
}

// TestWALAppendAllocs pins the WAL append path at zero allocations per
// record once the writer's encoder and frame buffer are warm.
func TestWALAppendAllocs(t *testing.T) {
	st, _, err := Open(t.TempDir(), SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	elems := batch(v(1, "a"), v(2, "b"), e(1, 2),
		stream.Element{Kind: stream.RemoveEdgeElement, V: 1, U: 2},
		stream.Element{Kind: stream.RemoveVertexElement, V: 2})
	appendOne := func() {
		if _, err := st.Append(RecordBatch, elems); err != nil {
			t.Fatal(err)
		}
	}
	appendOne()
	if avg := testing.AllocsPerRun(100, appendOne); avg != 0 {
		t.Fatalf("WAL append allocates %.1f/record, want 0", avg)
	}
}

// TestOpenRefusesPreviousFormat: a directory written in the previous
// on-disk format (text WAL bodies, text snapshots) is refused with an
// error naming the file and its format, and nothing in it is touched —
// no header-less-segment deletion, no tmp sweep, no fresh segment.
func TestOpenRefusesPreviousFormat(t *testing.T) {
	oldSegment := func() []byte {
		var seg bytes.Buffer
		seg.WriteString("loomwal1")
		seg.Write(make([]byte, 8)) // start sequence 0
		payload := binary.LittleEndian.AppendUint64(nil, 0)
		payload = append(payload, byte(RecordBatch))
		payload = append(payload, "v 1 a\nv 2 b\ne 1 2\n"...)
		var hdr [frameHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		seg.Write(hdr[:])
		seg.Write(payload)
		return seg.Bytes()
	}
	oldSnapshot := []byte("loom-snapshot 1\nm epoch 3\nm k 2\nm next_seq 0\n%graph\nv 1 a\n%assignment\n# k=2\np 1 0\n%end crc32=00000000\n")
	for _, tc := range []struct {
		name, file string
		data       []byte
		format     string
	}{
		{"segment", segName(0), oldSegment(), "loomwal1"},
		{"snapshot", snapName(0), oldSnapshot, "loom-snapshot 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, tc.file), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			tmp := filepath.Join(dir, snapName(7)+".tmp")
			if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirBytes(t, dir)
			st, _, err := Open(dir, SyncAlways)
			if err == nil {
				st.Close()
				t.Fatal("Open accepted a previous-format directory")
			}
			if !strings.Contains(err.Error(), tc.file) || !strings.Contains(err.Error(), tc.format) {
				t.Fatalf("error %q does not name the file %s and its format %q", err, tc.file, tc.format)
			}
			if after := dirBytes(t, dir); !maps.Equal(before, after) {
				t.Fatalf("Open changed the directory:\nbefore %q\nafter  %q", before, after)
			}
		})
	}
}

// dirBytes maps every file name in dir to its contents.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = string(data)
	}
	return out
}

// TestCorruptBinaryRecordIsFatalNotTorn is the body-level twin of
// TestCorruptRecordIsFatalNotTorn: a CRC-valid batch record whose frame
// payload no longer decodes (here: an unknown element kind) is an
// encoder bug or bit-rot, not a torn write — recovery must refuse, not
// silently truncate acknowledged data.
func TestCorruptBinaryRecordIsFatalNotTorn(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	var enc stream.FrameEncoder
	payload, err := enc.AppendPayload(nil, batch(v(0, "a"), v(1, "b")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBinary(payload); err != nil {
		t.Fatal(err)
	}
	st.Close()

	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	pos := walHeaderSize
	n := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
	// Drop the last byte of the binary frame body (cutting the element
	// stream mid-element) and re-stamp the WAL frame's length and CRC so
	// the framing layer still accepts it.
	rec := data[pos+frameHeaderSize : pos+frameHeaderSize+n-1]
	binary.LittleEndian.PutUint32(data[pos:pos+4], uint32(n-1))
	binary.LittleEndian.PutUint32(data[pos+4:pos+8], crc32.ChecksumIEEE(rec))
	if err := os.WriteFile(segs[0], data[:pos+frameHeaderSize+n-1], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(dir, SyncAlways); err == nil {
		t.Fatal("Open accepted a CRC-valid undecodable binary record (silent truncation)")
	}
}

// TestCorruptRecordIsFatalNotTorn: a CRC-valid frame that fails to decode
// cannot come from a torn write; recovery must refuse to start rather
// than silently truncate the acknowledged records behind it.
func TestCorruptRecordIsFatalNotTorn(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(RecordBatch, batch(v(0, "a"))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(RecordBatch, batch(v(1, "b"))); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Corrupt record 0's kind byte in place and re-stamp its CRC so the
	// frame still checksums — an encoder bug or bit-rot shape, not a torn
	// write.
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	pos := walHeaderSize
	n := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
	payload := data[pos+frameHeaderSize : pos+frameHeaderSize+n]
	payload[8] = 99 // unknown record kind
	binary.LittleEndian.PutUint32(data[pos+4:pos+8], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(dir, SyncAlways); err == nil {
		t.Fatal("Open accepted a CRC-valid undecodable record (silent truncation)")
	}
	// The file was not truncated: the acknowledged second record is still
	// on disk for manual repair.
	after, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Fatalf("recovery truncated the segment: %d -> %d bytes", len(data), len(after))
	}
}

func TestOpenSweepsStaleSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, snapName(7)+".tmp")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot temp file survived Open: %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	if p, err := ParseSyncPolicy("always"); err != nil || p != SyncAlways {
		t.Fatalf("always: %v %v", p, err)
	}
	if p, err := ParseSyncPolicy("none"); err != nil || p != SyncNone {
		t.Fatalf("none: %v %v", p, err)
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if !strings.Contains(SyncNone.String(), "none") || !strings.Contains(SyncAlways.String(), "always") {
		t.Fatal("String() mismatch")
	}
}
