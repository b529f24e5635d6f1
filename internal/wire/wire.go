// Package wire holds the byte-level conventions shared by the binary
// graph-stream codec (internal/stream) and the durable files of
// internal/checkpoint (WAL segments and snapshots): a length-prefixed,
// CRC-guarded frame and the label-safety predicate every codec enforces.
//
// A frame is
//
//	u32 LE payload length | u32 LE CRC32-IEEE(payload) | payload
//
// — the framing of an ingest frame, a WAL record and a snapshot section
// alike, stated once so the torn-tail recovery rules (a short or
// checksum-failing frame ends the scan) are the same everywhere.
package wire

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"unicode"
	"unicode/utf8"
)

const (
	// HeaderSize is the fixed frame prefix: u32 length + u32 CRC.
	HeaderSize = 8
	// MaxPayload bounds a single frame so a corrupt length field cannot
	// drive a giant allocation. Shared with the WAL's record cap.
	MaxPayload = 1 << 30
)

// PutHeader writes the frame header for payload into hdr, which must be
// at least HeaderSize bytes.
//
//loom:hotpath
func PutHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
}

// AppendFrame appends one whole frame (header + payload) to dst and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [HeaderSize]byte
	PutHeader(hdr[:], payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ParseHeader decodes a frame header. The caller is responsible for
// bounds-checking n against the bytes actually available and MaxPayload.
//
//loom:hotpath
func ParseHeader(hdr []byte) (n int, crc uint32) {
	return int(binary.LittleEndian.Uint32(hdr[0:4])), binary.LittleEndian.Uint32(hdr[4:8])
}

// Verify reports whether payload matches the CRC from its frame header.
//
//loom:hotpath
func Verify(payload []byte, crc uint32) bool {
	return crc32.ChecksumIEEE(payload) == crc
}

// SafeLabel reports whether a label survives every loom codec (text
// graph files, and the binary frames that WAL bodies and snapshots
// carry): non-empty and free of anything the text decoders treat as
// whitespace. The bar is unicode.IsSpace because that is exactly what
// strings.Fields splits on and strings.TrimSpace trims; the binary codec
// could carry arbitrary bytes, but accepting labels there that the text
// codecs cannot replay would let a durable state reach a server's text
// Export that cannot be read back.
func SafeLabel(s string) bool {
	return s != "" && !strings.ContainsFunc(s, unicode.IsSpace)
}

// SafeLabelBytes is SafeLabel over raw bytes, for decode hot paths that
// must not allocate a string first. Invalid UTF-8 decodes to RuneError,
// which is not a space — the same verdict SafeLabel reaches.
func SafeLabelBytes(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for i := 0; i < len(b); {
		r, size := utf8.DecodeRune(b[i:])
		if unicode.IsSpace(r) {
			return false
		}
		i += size
	}
	return true
}
