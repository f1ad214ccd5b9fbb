// Package trace is the versioned on-disk sensor-trace format: one frame
// per control period holding the exact (bit-preserved) timestamp, the
// full time-aligned PS measurement vector, and the attack annotations.
// A mission recorded once replays byte-identically forever — the format
// is the regression-corpus substrate of the replay gate in CI.
//
// Encoding is deterministic by construction: fixed little-endian layout,
// IEEE-754 bit images for every float (no decimal round-trip), header
// metadata as an ordered key/value list (never a map), and a gzip
// envelope whose integrity check (CRC-32 + length, verified at decode)
// doubles as the corruption detector. Re-encoding a decoded trace
// reproduces the input bytes.
package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/sensors"
)

// magic identifies a DeLorean sensor-trace file; it precedes the gzip
// envelope so `file`-style sniffing and version negotiation work without
// decompression.
const magic = "DLRNTRC\n"

// Version is the current trace-format version. Bump it on any change to
// the frame layout, header field set, or semantics; decoders reject
// versions they do not know rather than guessing (see DESIGN.md §5g for
// the versioning rules).
const Version = 1

// Frame flag bits.
const (
	// FlagAttackActive marks a frame during which the injection physically
	// reached the sensors.
	FlagAttackActive uint8 = 1 << 0
)

// Decode error classes. Decode wraps these sentinels with positional
// detail; test with errors.Is.
var (
	// ErrMagic: the input is not a DeLorean sensor trace.
	ErrMagic = errors.New("trace: bad magic (not a sensor-trace file)")
	// ErrVersion: the trace was written by an unknown format version.
	ErrVersion = errors.New("trace: unsupported format version")
	// ErrCorrupt: the envelope or payload is damaged or truncated.
	ErrCorrupt = errors.New("trace: corrupt or truncated")
)

// MetaEntry is one ordered header annotation. Meta carries the recorder's
// provenance (tool flags, profile, seed) as an explicit list so encoding
// order is the caller's order, never map order.
type MetaEntry struct {
	Key, Value string
}

// Header describes the recorded mission.
type Header struct {
	// DT is the control-period grid the frames were sampled on.
	DT float64
	// AttackMounted reports whether the recorded mission carried an SDA —
	// replay needs it for the run report's attacked/benign outcome
	// classification (the schedule itself is baked into the frames).
	AttackMounted bool
	// Meta holds ordered provenance annotations.
	Meta []MetaEntry
}

// MetaValue returns the value of the first entry with the given key, and
// whether it was present.
func (h Header) MetaValue(key string) (string, bool) {
	for _, e := range h.Meta {
		if e.Key == key {
			return e.Value, true
		}
	}
	return "", false
}

// Frame is one control period: exact timestamp, the full time-aligned PS
// measurement frame, and the attack annotations.
type Frame struct {
	T       float64
	State   sensors.PhysState
	Flags   uint8
	Targets sensors.TypeSet
}

// AttackActive reports the FlagAttackActive bit.
func (f Frame) AttackActive() bool { return f.Flags&FlagAttackActive != 0 }

// Trace is a decoded sensor trace.
type Trace struct {
	Header Header
	Frames []Frame
}

// frameBytes is the fixed on-disk frame size: timestamp, NumStates float
// images, flags, targets.
const frameBytes = 8 + 8*int(sensors.NumStates) + 2

// Encode writes the trace: magic, version, then the gzip-compressed
// payload. The output bytes are a pure function of the trace contents.
func (tr *Trace) Encode(w io.Writer) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], Version)
	if _, err := w.Write(v[:]); err != nil {
		return err
	}
	gz := gzip.NewWriter(w)
	if err := tr.encodePayload(gz); err != nil {
		return err
	}
	return gz.Close()
}

func (tr *Trace) encodePayload(w io.Writer) error {
	var buf bytes.Buffer
	putU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	putU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	putString := func(s string) {
		putU32(uint32(len(s)))
		buf.WriteString(s)
	}

	putU32(uint32(sensors.NumStates))
	putU64(math.Float64bits(tr.Header.DT))
	var hf uint8
	if tr.Header.AttackMounted {
		hf = 1
	}
	buf.WriteByte(hf)
	putU32(uint32(len(tr.Header.Meta)))
	for _, e := range tr.Header.Meta {
		putString(e.Key)
		putString(e.Value)
	}
	putU64(uint64(len(tr.Frames)))
	for i := range tr.Frames {
		f := &tr.Frames[i]
		putU64(math.Float64bits(f.T))
		for _, s := range f.State {
			putU64(math.Float64bits(s))
		}
		buf.WriteByte(f.Flags)
		buf.WriteByte(uint8(f.Targets))
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// Decode reads a trace written by Encode. Corruption anywhere — damaged
// magic, unknown version, truncated or bit-flipped payload (caught by the
// gzip CRC), a frame annotation with bits no flag or sensor type defines —
// yields an error wrapping one of the sentinel classes.
func Decode(r io.Reader) (*Trace, error) {
	head := make([]byte, len(magic)+4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, ErrMagic
	}
	if v := binary.LittleEndian.Uint32(head[len(magic):]); v != Version {
		return nil, fmt.Errorf("%w: got version %d, this build reads %d", ErrVersion, v, Version)
	}
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: bad envelope: %v", ErrCorrupt, err)
	}
	payload, err := io.ReadAll(gz)
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrCorrupt, err)
	}
	if err := gz.Close(); err != nil {
		return nil, fmt.Errorf("%w: envelope checksum: %v", ErrCorrupt, err)
	}
	return decodePayload(payload)
}

func decodePayload(p []byte) (*Trace, error) {
	d := &payloadReader{buf: p}
	if n := d.u32(); n != uint32(sensors.NumStates) {
		if d.err != nil {
			return nil, d.fail("state-count field")
		}
		return nil, fmt.Errorf("%w: trace has %d PS channels, this build has %d",
			ErrVersion, n, int(sensors.NumStates))
	}
	var tr Trace
	tr.Header.DT = math.Float64frombits(d.u64())
	tr.Header.AttackMounted = d.u8() != 0
	nMeta := d.u32()
	if d.err != nil {
		return nil, d.fail("header")
	}
	for i := uint32(0); i < nMeta; i++ {
		k := d.str()
		v := d.str()
		if d.err != nil {
			return nil, d.fail("header meta")
		}
		tr.Header.Meta = append(tr.Header.Meta, MetaEntry{Key: k, Value: v})
	}
	nFrames := d.u64()
	if d.err != nil || nFrames > uint64(len(d.buf)-d.off)/uint64(frameBytes) {
		return nil, d.fail("frame count")
	}
	tr.Frames = make([]Frame, nFrames)
	for i := range tr.Frames {
		f := &tr.Frames[i]
		f.T = math.Float64frombits(d.u64())
		for j := range f.State {
			f.State[j] = math.Float64frombits(d.u64())
		}
		f.Flags = d.u8()
		f.Targets = sensors.TypeSet(d.u8())
		if f.Flags&^FlagAttackActive != 0 || f.Targets&^sensors.All != 0 {
			return nil, fmt.Errorf("%w: frame %d: undefined annotation bits (flags %#02x, targets %#02x)",
				ErrCorrupt, i, f.Flags, uint8(f.Targets))
		}
	}
	if d.err != nil {
		return nil, d.fail("frames")
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes after last frame", ErrCorrupt, len(d.buf)-d.off)
	}
	return &tr, nil
}

// payloadReader cursors over the decompressed payload, latching the first
// out-of-bounds read as an error.
type payloadReader struct {
	buf []byte
	off int
	err error
}

func (d *payloadReader) fail(what string) error {
	if d.err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, what, d.err)
	}
	return fmt.Errorf("%w: %s", ErrCorrupt, what)
}

func (d *payloadReader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.err = errors.New("unexpected end of payload")
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *payloadReader) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *payloadReader) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *payloadReader) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *payloadReader) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	return string(d.take(int(n)))
}

// WriteFile encodes the trace to path.
func WriteFile(path string, tr *Trace) error {
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadFile decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := Decode(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}
