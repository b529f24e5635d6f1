package checkpoint

import (
	"bytes"
	"testing"

	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/stream"
	"loom/internal/wire"
)

// FuzzSnapshotCodec feeds arbitrary bytes to the snapshot reader: it must
// never panic, and whenever it does accept an input, re-encoding the
// decoded state must produce a snapshot the reader accepts again with the
// same metadata (round-trip stability).
func FuzzSnapshotCodec(f *testing.F) {
	g := graph.New()
	g.AddVertex(0, "a")
	g.AddVertex(1, "b")
	if err := g.AddEdge(0, 1); err != nil {
		f.Fatal(err)
	}
	a := partition.MustNewAssignment(2)
	_ = a.Set(0, 0)
	_ = a.Set(1, 1)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, Meta{Epoch: 3, K: 2, ExpectedVertices: 4, NextSeq: 9}, g, a); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	endOnly := wire.AppendFrame([]byte(snapMagic), []byte{sectionEnd})
	f.Add(good)
	f.Add(good[:len(good)/2]) // torn
	f.Add([]byte(snapMagic))  // header only
	f.Add(endOnly)            // end section without meta
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, gg, ga, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if werr := WriteSnapshot(&out, m, gg, ga); werr != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", werr)
		}
		m2, gg2, _, rerr := ReadSnapshot(bytes.NewReader(out.Bytes()))
		if rerr != nil {
			t.Fatalf("re-decode failed: %v", rerr)
		}
		// Compared encoded: a NaN float round-trips bit for bit but is
		// never == itself.
		if !bytes.Equal(appendMeta(nil, m2), appendMeta(nil, m)) {
			t.Fatalf("meta changed across round-trip: %+v vs %+v", m, m2)
		}
		if !gg2.Equal(gg) {
			t.Fatal("graph changed across round-trip")
		}
	})
}

// FuzzWALRecord feeds arbitrary bytes to the segment scanner: never panic
// on corrupt or truncated input, a torn final record is skipped rather
// than fatal, and every record the scanner does accept must round-trip
// through the frame encoder bit for bit.
func FuzzWALRecord(f *testing.F) {
	mkSeg := func(start uint64, recs ...[]byte) []byte {
		var buf bytes.Buffer
		buf.WriteString(walMagic)
		var hdr [8]byte
		for i := 0; i < 8; i++ {
			hdr[i] = byte(start >> (8 * i))
		}
		buf.Write(hdr[:])
		for _, r := range recs {
			buf.Write(r)
		}
		return buf.Bytes()
	}
	r0, err := encodeRecord(0, RecordBatch, []stream.Element{
		{Kind: stream.VertexElement, V: 1, Label: "a"},
		{Kind: stream.VertexElement, V: 2, Label: "b"},
		{Kind: stream.EdgeElement, V: 1, U: 2},
	})
	if err != nil {
		f.Fatal(err)
	}
	r1, err := encodeRecord(1, RecordDrain, nil)
	if err != nil {
		f.Fatal(err)
	}
	r2, err := encodeRecord(2, RecordBarrier, nil)
	if err != nil {
		f.Fatal(err)
	}
	// Removing vertex 1 drops edge (1,2), so re-adding that edge after it
	// is no duplicate: the batch is dedup-clean and replays.
	r3, err := encodeRecord(3, RecordBatch, []stream.Element{
		{Kind: stream.RemoveEdgeElement, V: 1, U: 2},
		{Kind: stream.RemoveVertexElement, V: 2},
		{Kind: stream.VertexElement, V: 2, Label: "b"},
		{Kind: stream.EdgeElement, V: 1, U: 2},
		{Kind: stream.RemoveVertexElement, V: 1},
		{Kind: stream.VertexElement, V: 1, Label: "a"},
		{Kind: stream.EdgeElement, V: 1, U: 2},
	})
	if err != nil {
		f.Fatal(err)
	}
	r4, err := encodeRecord(4, RecordBatch, []stream.Element{
		{Kind: stream.RemoveVertexElement, V: 3},
		{Kind: stream.RemoveEdgeElement, V: 1, U: 3},
	})
	if err != nil {
		f.Fatal(err)
	}
	full := mkSeg(0, r0, r1, r2, r3, r4)
	f.Add(full)
	f.Add(full[:len(full)-3]) // torn final (removal) record
	f.Add(mkSeg(7))           // header only
	f.Add([]byte(walMagic))   // short header
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := scanSegment(data)
		if err != nil {
			// Bad header, or a CRC-valid frame that does not decode
			// (corruption is refused, not silently truncated).
			return
		}
		if sc.valid > int64(len(data)) {
			t.Fatalf("valid offset %d beyond input %d", sc.valid, len(data))
		}
		next := sc.start
		for _, rec := range sc.recs {
			if rec.Seq != next {
				t.Fatalf("scanner returned non-consecutive seq %d (want %d)", rec.Seq, next)
			}
			next++
			frame, err := encodeRecord(rec.Seq, rec.Kind, rec.Elems)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			back, err := decodePayload(frame[frameHeaderSize:])
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v", err)
			}
			if back.Seq != rec.Seq || back.Kind != rec.Kind || !elemsEqual(back.Elems, rec.Elems) {
				t.Fatalf("record changed across round-trip: %+v vs %+v", rec, back)
			}
		}
		// The valid prefix must rescan to the same records (truncation
		// at the reported offset is safe).
		if sc.torn {
			sc2, err := scanSegment(data[:sc.valid])
			if err != nil || sc2.torn || len(sc2.recs) != len(sc.recs) {
				t.Fatalf("valid prefix rescans to %d records (torn=%v, err=%v), want %d", len(sc2.recs), sc2.torn, err, len(sc.recs))
			}
		}
	})
}
