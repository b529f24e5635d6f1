package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"loom/internal/fault"
	"loom/internal/stream"
)

// Binary ingest.
//
// IngestFrames reads length-prefixed binary frames (internal/stream's
// binary codec) off a connection and decodes each one — CRC check,
// parse, label intern, intra-frame dedup, validation — on the caller's
// goroutine, so the single-writer loop only scores and places. Frames
// are sent to the mailbox without waiting for the writer's reply, so the
// decode of frame i+1 overlaps the writer's work on frame i, and batch
// order at the mailbox is frame order on the wire by construction.
//
// Decoded batches travel as ordinary envelopes through the same
// admission gate, mailbox, writer validation and WAL-append-before-ack
// as the text path, and the writer logs them the same way.
//
// A frame that fails to read or decode is poisoned: IngestFrames stops
// at it, returns a *BadFrameError (HTTP 400), and nothing from that
// frame — or any later frame — reaches the writer or the WAL.

// maxPendingFrames bounds how many sent frames may await writer replies
// before IngestFrames stops reading new ones; it bounds frame-buffer
// memory, not throughput (the mailbox provides the real backpressure).
const maxPendingFrames = 32

// BadFrameError reports a malformed binary ingest frame. The stream is
// terminated at that frame; nothing from it reached the writer or the
// WAL. Frame is the zero-based index of the offending frame.
type BadFrameError struct {
	Frame int
	Err   error
}

func (e *BadFrameError) Error() string {
	return fmt.Sprintf("serve: bad frame %d: %v", e.Frame, e.Err)
}

func (e *BadFrameError) Unwrap() error { return e.Err }

// FrameIngest summarises one binary ingest stream.
type FrameIngest struct {
	// Frames and Elements count what was decoded and handed to the
	// writer; Deduped counts intra-frame duplicates dropped by decode
	// before the writer ever saw them.
	Frames   int
	Elements int
	Deduped  int

	errs    []error
	dropped int
}

// Err joins the per-batch element errors (writer-side rejections,
// durability acknowledgement failures), capped like IngestSync's reply;
// nil when every element of every frame was accepted and acknowledged.
func (r *FrameIngest) Err() error {
	if len(r.errs) == 0 {
		return nil
	}
	errs := r.errs
	if r.dropped > 0 {
		errs = append(errs[:len(errs):len(errs)],
			fmt.Errorf("serve: %d further batch errors", r.dropped))
	}
	return errors.Join(errs...)
}

func (r *FrameIngest) note(err error) {
	if err == nil {
		return
	}
	if len(r.errs) < maxReportedErrors {
		r.errs = append(r.errs, err)
	} else {
		r.dropped++
	}
}

// frameSlot holds one frame from decode until the writer's reply: the
// envelope's elements alias batch, so the slot is reused only after its
// reply has been received.
type frameSlot struct {
	batch stream.Batch
	reply chan error
}

// frameState is one IngestFrames call's decoder and ring of in-flight
// frames. States are pooled so a steady run of one-frame requests keeps
// the decoder's intern cache and the batch buffers warm.
type frameState struct {
	dec   stream.FrameDecoder
	slots [maxPendingFrames]frameSlot
}

var frameStates = sync.Pool{New: func() any { return new(frameState) }}

// decodeFrame runs the failpoint-instrumented decode of one frame.
//
//loom:hotpath
func decodeFrame(d *stream.FrameDecoder, b *stream.Batch) error {
	// ServeDecodeStall models a slow decode (latency-only injections
	// sleep inside Check); an erroring rule poisons the frame, same as
	// WireDecode below.
	if err := fault.Check(fault.ServeDecodeStall); err != nil {
		return err
	}
	// WireDecode poisons the frame before it is parsed: the typed error
	// path must refuse it without anything reaching the writer.
	if err := fault.Check(fault.WireDecode); err != nil {
		return err
	}
	return d.Decode(b)
}

// IngestFrames reads binary element frames from r until EOF, decoding
// each on the calling goroutine and feeding the writer in frame order.
// It returns once every accepted frame has been processed and
// acknowledged by the writer (durability included, per the store's sync
// policy).
//
// The error is non-nil only for stream-terminating failures: a malformed
// frame (*BadFrameError), an admission refusal (*OverloadError), a wedged
// or stopped server. Per-element rejections inside otherwise-healthy
// frames do not terminate the stream; they are reported via
// FrameIngest.Err, mirroring IngestSync.
func (s *Server) IngestFrames(r io.Reader) (FrameIngest, error) {
	st := frameStates.Get().(*frameState)
	defer frameStates.Put(st)
	fr := stream.NewFrameReader(r)
	var res FrameIngest
	var fatal error

	// The slots oldest..oldest+pending-1 (mod the ring) are sent and await
	// their writer replies, in frame order.
	oldest, pending := 0, 0
	settleOldest := func() {
		err := <-st.slots[oldest].reply
		oldest = (oldest + 1) % maxPendingFrames
		pending--
		if err == nil {
			return
		}
		if errors.Is(err, ErrWedged) || errors.Is(err, ErrStopped) {
			// The whole batch was refused, not applied; later frames
			// would meet the same refusal.
			if fatal == nil {
				fatal = err
			}
		} else {
			res.note(err)
		}
	}

	for fatal == nil {
		if pending == maxPendingFrames {
			settleOldest()
			continue
		}
		sl := &st.slots[(oldest+pending)%maxPendingFrames]
		err := fr.Next(&sl.batch)
		if err == io.EOF {
			break
		}
		if err == nil {
			err = decodeFrame(&st.dec, &sl.batch)
		}
		if err != nil {
			fatal = &BadFrameError{Frame: res.Frames, Err: err}
			break
		}
		if sl.reply == nil {
			sl.reply = make(chan error, 1)
		}
		if err := s.send(envelope{elems: sl.batch.Elems, reply: sl.reply}); err != nil {
			fatal = err
			break
		}
		res.Frames++
		res.Elements += len(sl.batch.Elems)
		res.Deduped += sl.batch.Deduped
		pending++
	}
	// Every sent frame is acknowledged before its slot returns to the
	// pool, so "accepted frame ⇒ processed" holds even on a fatal error.
	for pending > 0 {
		settleOldest()
	}
	return res, fatal
}
