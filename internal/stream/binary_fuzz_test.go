package stream

import (
	"bytes"
	"fmt"
	"testing"

	"loom/internal/graph"
)

// elemsFromFuzzBytes deterministically derives a valid element batch from
// arbitrary fuzz input: each 4-byte chunk becomes one element. Vertices
// get labels from a small safe alphabet; edges avoid self-loops; removal
// kinds appear with the same weight as inserts so version-2 payloads and
// add/remove alternation get fuzzed. The mapping is total — every input
// produces some batch — so the fuzzer explores batch shapes (dup
// vertices, reversed dup edges, add→remove→re-add runs, label reuse,
// negative ids) rather than input validity.
func elemsFromFuzzBytes(data []byte) []Element {
	labels := []graph.Label{"a", "b", "röd", "x:1"}
	var out []Element
	for i := 0; i+4 <= len(data); i += 4 {
		sel, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		id := graph.VertexID(int8(a))*64 + graph.VertexID(int8(b))
		u := graph.VertexID(int8(c))
		if u == id {
			u++
		}
		switch sel % 4 {
		case 0:
			out = append(out, Element{
				Kind: VertexElement, V: id,
				Label: labels[int(c)%len(labels)],
				Seq:   len(out),
			})
		case 1:
			out = append(out, Element{Kind: EdgeElement, V: id, U: u, Seq: len(out)})
		case 2:
			out = append(out, Element{Kind: RemoveVertexElement, V: id, Seq: len(out)})
		default:
			out = append(out, Element{Kind: RemoveEdgeElement, V: id, U: u, Seq: len(out)})
		}
	}
	return out
}

// renderText renders elems in the graph-stream text codec, the shape
// FromReader parses.
func renderText(elems []Element) []byte {
	var buf bytes.Buffer
	for i := range elems {
		el := &elems[i]
		switch el.Kind {
		case VertexElement:
			fmt.Fprintf(&buf, "v %d %s\n", el.V, el.Label)
		case EdgeElement:
			fmt.Fprintf(&buf, "e %d %d\n", el.V, el.U)
		case RemoveVertexElement:
			fmt.Fprintf(&buf, "rv %d\n", el.V)
		case RemoveEdgeElement:
			fmt.Fprintf(&buf, "re %d %d\n", el.V, el.U)
		}
	}
	return buf.Bytes()
}

// FuzzBinaryCodec cross-checks the binary codec against the text codec:
// for every derived batch, decode(encode(batch)) through the binary path
// must agree element-for-element with the text path on the deduplicated
// prefix semantics, and decoding the raw fuzz input directly must never
// panic.
func FuzzBinaryCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{1, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{0, 5, 5, 1}, 8))
	// Removal shapes: lone remove-vertex / remove-edge, add→remove→re-add
	// of one vertex (legal alternation), and a remove-remove repeat that
	// must dedup.
	f.Add([]byte{2, 1, 2, 3})
	f.Add([]byte{3, 1, 2, 3})
	f.Add([]byte{0, 1, 2, 3, 2, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{3, 1, 2, 3, 3, 1, 2, 3, 1, 1, 2, 3})
	// [v 1, v 2, e 1 2, rv 1, v 1, e 1 2]: the vertex removal drops the
	// edge, so its re-add is no duplicate.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 1, 0, 1, 2, 2, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1. Arbitrary bytes as a frame payload must never panic.
		var dRaw FrameDecoder
		_ = dRaw.DecodePayload(&Batch{Payload: data})

		// 2. Round-trip: decode(encode(batch)) over the binary codec.
		elems := elemsFromFuzzBytes(data)
		var enc FrameEncoder
		payload, err := enc.AppendPayload(nil, elems)
		if err != nil {
			t.Fatalf("encoder refused a generated batch: %v", err)
		}
		var d FrameDecoder
		b := Batch{Payload: payload}
		if derr := d.DecodePayload(&b); derr != nil {
			t.Fatalf("decode(encode(batch)) failed: %v", derr)
		}
		if len(b.Elems)+b.Deduped != len(elems) {
			t.Fatalf("decoded %d + deduped %d != encoded %d", len(b.Elems), b.Deduped, len(elems))
		}

		// 3. Differential against the text codec: parse the same batch
		// through FromReader and apply the binary decoder's dedup rule —
		// last operation per identity wins once, so only a repeat of the
		// SAME operation (add-add or remove-remove) on a vertex id or
		// normalized edge is dropped, while add/remove alternation passes
		// through, and a vertex removal forgets every edge mark (it
		// removes the vertex's edges) — the two streams must then be
		// identical, Seq included.
		src := FromReader(bytes.NewReader(renderText(elems)))
		const opRemove, opAdd = 1, 2 // 0 = identity unseen this frame
		seenV := make(map[graph.VertexID]int)
		seenE := make(map[graph.Edge]int)
		var want []Element
		for {
			el, ok := src.Next()
			if !ok {
				break
			}
			switch el.Kind {
			case VertexElement, RemoveVertexElement:
				op := opAdd
				if el.Kind == RemoveVertexElement {
					op = opRemove
				}
				if seenV[el.V] == op {
					continue
				}
				seenV[el.V] = op
				if op == opRemove {
					clear(seenE)
				}
			default:
				op := opAdd
				if el.Kind == RemoveEdgeElement {
					op = opRemove
				}
				e := graph.Edge{U: el.V, V: el.U}.Normalize()
				if seenE[e] == op {
					continue
				}
				seenE[e] = op
			}
			el.Seq = len(want)
			want = append(want, el)
		}
		if err := src.Err(); err != nil {
			t.Fatalf("text codec rejected a batch the binary codec accepts: %v", err)
		}
		if len(want) != len(b.Elems) {
			t.Fatalf("text path kept %d elements, binary path %d", len(want), len(b.Elems))
		}
		for i := range want {
			if want[i] != b.Elems[i] {
				t.Fatalf("element %d: text %v, binary %v", i, want[i], b.Elems[i])
			}
		}

		// 4. Re-encoding the decoded batch must produce a payload that
		// decodes to the same elements (stability).
		payload2, err := enc.AppendPayload(nil, b.Elems)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		elems2, err := DecodeFramePayload(payload2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(elems2) != len(b.Elems) {
			t.Fatalf("re-decode kept %d elements, want %d", len(elems2), len(b.Elems))
		}
		for i := range elems2 {
			if elems2[i] != b.Elems[i] {
				t.Fatalf("re-decode element %d: %v, want %v", i, elems2[i], b.Elems[i])
			}
		}
	})
}
