package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"loom/internal/fault"
	"loom/internal/graph"
	"loom/internal/stream"
	"loom/internal/wire"
)

// The write-ahead log is a sequence of framed records appended to segment
// files. Each frame is
//
//	u32 LE payload length | u32 LE CRC32(payload) | payload
//
// (the shared wire framing — see internal/wire) and each payload is
//
//	u64 LE sequence number | u8 record kind | body
//
// where the body of a batch record is a binary frame payload
// (internal/stream's codec) of the elements the writer accepted, and
// drain and barrier records have no body. A segment file starts with an
// 8-byte magic plus the u64 LE sequence number of its first record.
//
// Recovery tolerates a torn tail: a frame whose length, checksum, body or
// sequence number does not check out ends the scan, and everything before
// it replays normally. The writer truncates the file back to the last
// intact frame before appending again.

const (
	walMagic = "loomwal2"
	// walMagicV1 marks the previous format, whose batch bodies were
	// graph-stream text; Open refuses it.
	walMagicV1 = "loomwal1"
	// walHeaderSize is magic + start sequence number.
	walHeaderSize = len(walMagic) + 8
	// frameHeaderSize is length + CRC (the shared wire framing).
	frameHeaderSize = wire.HeaderSize
	// payloadHeaderSize is sequence number + kind.
	payloadHeaderSize = 9
	// maxPayload bounds a single record so a corrupt length field cannot
	// drive a giant allocation.
	maxPayload = wire.MaxPayload
)

// RecordKind discriminates WAL records.
type RecordKind uint8

const (
	// RecordBatch carries the accepted elements of one ingest batch.
	RecordBatch RecordKind = 1
	// RecordDrain marks a window drain (Server.Drain): replay must force
	// the same assignment barrier at the same stream position.
	RecordDrain RecordKind = 2
	// RecordBarrier marks a checkpoint barrier (drain + engine reseed).
	// It is written before the snapshot; when the snapshot write then
	// succeeds and rotates the WAL the record is covered and filtered,
	// but when it fails, replay must reproduce the reseed too — a drain
	// alone would leave the engine (and its tie-break RNG) in a
	// different state than the live server had.
	RecordBarrier RecordKind = 3
)

// Record is one decoded WAL entry.
type Record struct {
	Seq   uint64
	Kind  RecordKind
	Elems []stream.Element // batch records only
}

// CodecSafeLabel reports whether l survives every loom codec: non-empty
// and free of anything the text decoders treat as whitespace (see
// wire.SafeLabel). The frame encoder refuses other labels, and the serve
// layer rejects them at ingest with this same predicate, so the accepted
// stream is always encodable.
func CodecSafeLabel(l graph.Label) bool {
	return wire.SafeLabel(string(l))
}

// frameHeaderPad reserves a frame header in a buffer; finishFrame stamps
// it once the payload behind it is complete.
var frameHeaderPad [frameHeaderSize]byte

// finishFrame stamps the length and CRC of frame[frameHeaderSize:] into
// the header frameHeaderPad reserved.
//
//loom:hotpath
func finishFrame(frame []byte) {
	wire.PutHeader(frame[:frameHeaderSize], frame[frameHeaderSize:])
}

// encodeRecord frames one record into the writer's reusable buffer. A
// batch record's body is payload when it is not empty, else elems
// encoded with the writer's frame encoder.
//
//loom:hotpath
func (w *walWriter) encodeRecord(kind RecordKind, elems []stream.Element, payload []byte) ([]byte, error) {
	buf := w.buf[:0]
	buf = append(buf, frameHeaderPad[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, w.next)
	buf = append(buf, byte(kind))
	if len(payload) > 0 {
		buf = append(buf, payload...)
	} else if kind == RecordBatch {
		var err error
		if buf, err = w.enc.AppendPayload(buf, elems); err != nil {
			return nil, err
		}
	}
	finishFrame(buf)
	w.buf = buf
	return buf, nil
}

// decodePayload parses one CRC-validated payload.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) < payloadHeaderSize {
		return Record{}, fmt.Errorf("checkpoint: payload %d bytes, want >= %d", len(payload), payloadHeaderSize)
	}
	rec := Record{
		Seq:  binary.LittleEndian.Uint64(payload[0:8]),
		Kind: RecordKind(payload[8]),
	}
	body := payload[payloadHeaderSize:]
	switch rec.Kind {
	case RecordBatch:
		elems, err := stream.DecodeFramePayload(body)
		if err != nil {
			return Record{}, err
		}
		rec.Elems = elems
	case RecordDrain, RecordBarrier:
		if len(body) != 0 {
			return Record{}, fmt.Errorf("checkpoint: record kind %d carries %d body bytes", rec.Kind, len(body))
		}
	default:
		return Record{}, fmt.Errorf("checkpoint: unknown record kind %d", rec.Kind)
	}
	return rec, nil
}

// scanFrames walks the wire frames of data from offset pos, handing each
// CRC-valid payload to fn. Framing-level damage — a short or
// checksum-failing trailing frame, or one shorter than minPayload (a
// zero-filled tail checksums as an empty frame) — is what a torn write
// leaves: it ends the scan with torn set, never an error and never a
// panic. An error from fn ends the scan with that error. end is the
// offset just past the last frame fn accepted.
func scanFrames(data []byte, pos, minPayload int, fn func(off int, payload []byte) error) (end int, torn bool, err error) {
	for pos < len(data) {
		if len(data)-pos < frameHeaderSize {
			return pos, true, nil
		}
		n, sum := wire.ParseHeader(data[pos : pos+frameHeaderSize])
		if n < minPayload || n > maxPayload || len(data)-pos-frameHeaderSize < n {
			return pos, true, nil
		}
		payload := data[pos+frameHeaderSize : pos+frameHeaderSize+n]
		if !wire.Verify(payload, sum) {
			return pos, true, nil
		}
		if err := fn(pos, payload); err != nil {
			return pos, false, err
		}
		pos += frameHeaderSize + n
	}
	return pos, false, nil
}

// segmentScan is the result of reading one WAL segment.
type segmentScan struct {
	start uint64   // first sequence number, from the header
	recs  []Record // intact records, consecutive from start
	valid int64    // file offset just past the last intact record
	torn  bool     // trailing bytes were discarded
}

var errBadSegmentHeader = fmt.Errorf("checkpoint: bad WAL segment header")

// errWriterBroken is returned by every append after a failed rollback;
// hoisted to a package variable so the hot append path allocates nothing.
var errWriterBroken = errors.New("checkpoint: WAL writer broken by an earlier failed write")

// scanSegment decodes a whole segment from data. A missing or corrupt
// header yields errBadSegmentHeader; a torn tail ends the scan (see
// scanFrames). A frame whose checksum passes but whose payload does not
// decode (or carries the wrong sequence number) cannot come from a torn
// write: that is corruption or an encoder/decoder mismatch, and it is
// returned as an error so recovery refuses to start instead of silently
// truncating every acknowledged record behind it.
func scanSegment(data []byte) (segmentScan, error) {
	if len(data) < walHeaderSize || string(data[:len(walMagic)]) != walMagic {
		return segmentScan{}, errBadSegmentHeader
	}
	s := segmentScan{start: binary.LittleEndian.Uint64(data[len(walMagic):walHeaderSize])}
	next := s.start
	end, torn, err := scanFrames(data, walHeaderSize, payloadHeaderSize, func(off int, payload []byte) error {
		rec, err := decodePayload(payload)
		if err != nil {
			return fmt.Errorf("checkpoint: offset %d: CRC-valid record does not decode: %w", off, err)
		}
		if rec.Seq != next {
			return fmt.Errorf("checkpoint: offset %d: record seq %d, want %d", off, rec.Seq, next)
		}
		s.recs = append(s.recs, rec)
		next++
		return nil
	})
	s.valid, s.torn = int64(end), torn
	return s, err
}

// readSegmentFile scans the segment at path. The fault.WALReadCorrupt
// failpoint flips the last byte of the in-memory image before the scan,
// simulating on-disk corruption of the tail: the scan must degrade to a
// torn tail, never a panic.
func readSegmentFile(path string) (segmentScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segmentScan{}, err
	}
	if inj := fault.Hit(fault.WALReadCorrupt); inj != nil && len(data) > walHeaderSize {
		data[len(data)-1] ^= 0xff
	}
	return scanSegment(data)
}

// walWriter appends framed records to one open segment file.
type walWriter struct {
	f     *os.File
	path  string
	start uint64
	next  uint64
	sync  bool
	// off is the offset just past the last intact frame. A failed or
	// short frame write is rolled back by truncating to off; if even that
	// fails the writer flips broken and refuses further appends — leaving
	// a torn frame mid-file would make every later (fsynced!) record
	// unreachable to the recovery scan.
	off    int64
	broken bool
	// enc and buf encode records without allocating; they move to the
	// next segment's writer at rotation.
	enc stream.FrameEncoder
	buf []byte
}

// createSegment writes a fresh segment with the given start sequence. The
// header is written and (under SyncAlways) synced before the writer is
// returned, so a crash right after rotation leaves a parseable segment.
//
//loom:framedwriter emits the fixed-size segment header the frame scan starts from
func createSegment(path string, start uint64, syncOn bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint64(hdr[len(walMagic):], start)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if syncOn {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &walWriter{f: f, path: path, start: start, next: start, sync: syncOn, off: int64(walHeaderSize)}, nil
}

// openSegmentForAppend reopens an existing segment, truncating any torn
// tail back to validSize, and positions the writer at the end.
func openSegmentForAppend(path string, sc segmentScan, syncOn bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(sc.valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(sc.valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	next := sc.start + uint64(len(sc.recs))
	return &walWriter{f: f, path: path, start: sc.start, next: next, sync: syncOn, off: sc.valid}, nil
}

// append frames and writes one record (see encodeRecord), returning its
// size on disk. A failed write is rolled back to the previous frame
// boundary; a failed rollback breaks the writer for good (fail-fast beats
// acknowledging records the recovery scan can never reach behind a torn
// frame).
//
//loom:framedwriter this is the CRC-framing helper itself; every byte it writes is a framed record
//loom:hotpath
func (w *walWriter) append(kind RecordKind, elems []stream.Element, payload []byte) (int, error) {
	if w.broken {
		return 0, errWriterBroken
	}
	// Fault injection sites mirror the real failure shapes: WALAppend
	// fails before any byte moves, WALFrameWrite tears (ShortWrite) or
	// fails the frame write, WALSync fails the fsync after a complete
	// frame. Each takes the same rollback path the organic error would.
	if err := fault.Check(fault.WALAppend); err != nil {
		return 0, err
	}
	frame, err := w.encodeRecord(kind, elems, payload)
	if err != nil {
		return 0, err
	}
	if inj := fault.Hit(fault.WALFrameWrite); inj != nil {
		if sw := inj.ShortWrite; sw > 0 && sw < len(frame) {
			// A genuinely torn frame prefix, exactly what a crash or
			// ENOSPC mid-write leaves; rollback must truncate it away.
			_, _ = w.f.Write(frame[:sw])
		}
		w.rollback()
		return 0, inj.Failure()
	}
	n, err := w.f.Write(frame)
	if err != nil || n != len(frame) {
		w.rollback()
		if err == nil {
			err = io.ErrShortWrite
		}
		return 0, err
	}
	if w.sync {
		if err := fault.Check(fault.WALSync); err != nil {
			w.rollback()
			return 0, err
		}
		if err := w.f.Sync(); err != nil {
			// Rolling the unsynced frame back keeps one invariant for
			// callers: a failed append leaves no record. (Recovery copes
			// either way — a frame boundary is always a valid file end.)
			w.rollback()
			return 0, err
		}
	}
	w.off += int64(len(frame))
	w.next++
	return len(frame), nil
}

// rollback truncates a torn frame back to the previous frame boundary;
// failure to do so breaks the writer permanently.
func (w *walWriter) rollback() {
	if terr := w.f.Truncate(w.off); terr != nil {
		w.broken = true
	} else if _, serr := w.f.Seek(w.off, io.SeekStart); serr != nil {
		w.broken = true
	}
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
