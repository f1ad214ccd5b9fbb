package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/sensors"
)

// sample builds a small trace with non-trivial float payloads (negative
// zero, subnormals, and values with full mantissas) so the round trip
// proves bit preservation, not just approximate equality.
func sample() *Trace {
	tr := &Trace{
		Header: Header{
			DT:            0.01,
			AttackMounted: true,
			Meta: []MetaEntry{
				{Key: "generator", Value: "test"},
				{Key: "seed", Value: "42"},
				{Key: "empty", Value: ""},
			},
		},
	}
	for i := 0; i < 7; i++ {
		var f Frame
		f.T = float64(i) * 0.01
		for j := range f.State {
			f.State[j] = math.Sqrt(float64(i*31+j)+0.1) * 1e-3
		}
		f.State[0] = math.Copysign(0, -1)        // -0.0 must survive
		f.State[1] = math.SmallestNonzeroFloat64 // subnormal must survive
		if i >= 3 {
			f.Flags = FlagAttackActive
			f.Targets = sensors.NewTypeSet(sensors.GPS, sensors.Gyro)
		}
		tr.Frames = append(tr.Frames, f)
	}
	return tr
}

func encode(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	tr := sample()
	enc := encode(t, tr)
	got, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Header.AttackMounted != tr.Header.AttackMounted {
		t.Error("AttackMounted lost")
	}
	if math.Float64bits(got.Header.DT) != math.Float64bits(tr.Header.DT) {
		t.Error("DT lost")
	}
	if len(got.Header.Meta) != len(tr.Header.Meta) {
		t.Fatalf("meta count = %d, want %d", len(got.Header.Meta), len(tr.Header.Meta))
	}
	for i, e := range tr.Header.Meta {
		if got.Header.Meta[i] != e {
			t.Errorf("meta[%d] = %+v, want %+v", i, got.Header.Meta[i], e)
		}
	}
	if len(got.Frames) != len(tr.Frames) {
		t.Fatalf("frames = %d, want %d", len(got.Frames), len(tr.Frames))
	}
	for i := range tr.Frames {
		w, g := tr.Frames[i], got.Frames[i]
		if math.Float64bits(g.T) != math.Float64bits(w.T) {
			t.Errorf("frame %d: T bits differ", i)
		}
		for j := range w.State {
			if math.Float64bits(g.State[j]) != math.Float64bits(w.State[j]) {
				t.Errorf("frame %d state %d: bits differ", i, j)
			}
		}
		if g.Flags != w.Flags || g.Targets != w.Targets {
			t.Errorf("frame %d: flags/targets differ", i)
		}
	}
	if !got.Frames[3].AttackActive() || got.Frames[0].AttackActive() {
		t.Error("AttackActive flag wrong")
	}
}

// TestDeterministicEncoding: encoding is a pure function of the contents
// — same trace, same bytes, and a decoded trace re-encodes to the
// original bytes (the regression-corpus contract).
func TestDeterministicEncoding(t *testing.T) {
	tr := sample()
	a, b := encode(t, tr), encode(t, tr)
	if !bytes.Equal(a, b) {
		t.Error("two encodings of the same trace differ")
	}
	dec, err := Decode(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(encode(t, dec), a) {
		t.Error("decode→re-encode is not byte-identical")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	enc := encode(t, sample())
	enc[0] ^= 0xFF
	if _, err := Decode(bytes.NewReader(enc)); !errors.Is(err, ErrMagic) {
		t.Errorf("got %v, want ErrMagic", err)
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	enc := encode(t, sample())
	enc[len(magic)] = 99
	if _, err := Decode(bytes.NewReader(enc)); !errors.Is(err, ErrVersion) {
		t.Errorf("got %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	enc := encode(t, sample())
	// Truncations at every layer: inside the header, inside the gzip
	// stream, and mid-payload.
	for _, n := range []int{0, 4, len(magic) + 2, len(enc) / 2, len(enc) - 1} {
		if _, err := Decode(bytes.NewReader(enc[:n])); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

func TestDecodeRejectsBitFlip(t *testing.T) {
	enc := encode(t, sample())
	// Flip a byte in the middle of the compressed payload; the gzip
	// integrity check must catch it.
	enc[len(enc)*2/3] ^= 0x40
	if _, err := Decode(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("got %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsStateCountMismatch(t *testing.T) {
	// A trace recorded with a different PS layout must be refused, not
	// misparsed. Re-encode with a corrupted channel-count field.
	tr := sample()
	var payload bytes.Buffer
	if err := tr.encodePayload(&payload); err != nil {
		t.Fatal(err)
	}
	p := payload.Bytes()
	p[0]++ // NumStates+1
	if _, err := Decode(bytes.NewReader(envelope(t, p))); !errors.Is(err, ErrVersion) {
		t.Errorf("got %v, want ErrVersion (layout mismatch)", err)
	}
}

func TestDecodeRejectsOversizedFrameCount(t *testing.T) {
	// A frame count larger than the remaining payload must fail fast
	// instead of allocating.
	tr := &Trace{Header: Header{DT: 0.01}}
	var payload bytes.Buffer
	if err := tr.encodePayload(&payload); err != nil {
		t.Fatal(err)
	}
	p := payload.Bytes()
	p[len(p)-1] = 0xFF // frame count low byte: 255 frames, zero payload
	if _, err := Decode(bytes.NewReader(envelope(t, p))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("got %v, want ErrCorrupt", err)
	}
}

// TestDecodeRejectsUndefinedAnnotationBits: a frame whose flags or
// targets byte sets a bit no flag or sensor type defines is corrupt, so a
// hostile trace cannot hand replay a target set whose Len disagrees with
// its members.
func TestDecodeRejectsUndefinedAnnotationBits(t *testing.T) {
	var payload bytes.Buffer
	if err := sample().encodePayload(&payload); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name  string
		at    int // offset from the payload's end: 2 flags, 1 targets
		value byte
	}{
		{"flags 0x02", 2, 0x02},
		{"flags 0x81", 2, FlagAttackActive | 0x80},
		{"targets 0x20", 1, 0x20},
		{"targets 0x80", 1, 0x80},
		{"targets 0x3f", 1, byte(sensors.All) | 0x20},
	} {
		p := bytes.Clone(payload.Bytes())
		p[len(p)-tt.at] = tt.value
		_, err := Decode(bytes.NewReader(envelope(t, p)))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "frame 6") {
			t.Errorf("%s: got %v, want ErrCorrupt naming frame 6", tt.name, err)
		}
	}
	p := bytes.Clone(payload.Bytes())
	p[len(p)-1] = byte(sensors.All)
	if _, err := Decode(bytes.NewReader(envelope(t, p))); err != nil {
		t.Errorf("every defined target bit: %v", err)
	}
}

// TestEncodeRejectsUndefinedAnnotationBits: Encode refuses, before it
// writes a byte, a frame that Decode would reject.
func TestEncodeRejectsUndefinedAnnotationBits(t *testing.T) {
	for _, tt := range []struct {
		name    string
		flags   uint8
		targets sensors.TypeSet
	}{
		{"flags 0x04", 0x04, 0},
		{"targets 0x80", FlagAttackActive, 0x80},
	} {
		tr := sample()
		tr.Frames[4].Flags, tr.Frames[4].Targets = tt.flags, tt.targets
		var buf bytes.Buffer
		err := tr.Encode(&buf)
		if err == nil || !strings.Contains(err.Error(), "frame 4") {
			t.Errorf("%s: Encode = %v, want an error naming frame 4", tt.name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: Encode wrote %d bytes before failing", tt.name, buf.Len())
		}
	}
}

// envelope wraps a raw payload in the magic, version and gzip envelope.
func envelope(t *testing.T, p []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	out.WriteString(magic)
	out.Write([]byte{Version, 0, 0, 0})
	gz := gzip.NewWriter(&out)
	if _, err := gz.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/m.trace"
	tr := sample()
	if err := WriteFile(path, tr); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(got.Frames) != len(tr.Frames) {
		t.Errorf("frames = %d, want %d", len(got.Frames), len(tr.Frames))
	}
	if _, err := ReadFile(path + ".missing"); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestMetaValue(t *testing.T) {
	h := sample().Header
	if v, ok := h.MetaValue("seed"); !ok || v != "42" {
		t.Errorf("MetaValue(seed) = %q, %v", v, ok)
	}
	if _, ok := h.MetaValue("absent"); ok {
		t.Error("MetaValue(absent) should miss")
	}
}
