package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

var (
	tagA = [4]byte{'A', 'A', 'A', 'A'}
	tagB = [4]byte{'B', 'B', 'B', 'B'}
	tagX = [4]byte{'X', 'T', 'R', 'A'}
)

var testFrame = Frame{
	Magic: "TESTFRAM", Kind: "test", MinVersion: 2, MaxVersion: 3, PlainVersion: 2,
	Tags: [][4]byte{tagA, tagB},
}

// big is an array over AlignThreshold, so an aligned section pads it.
var big = make([]float64, AlignThreshold/8+3)

func floatsSection(tag [4]byte, align int) Section {
	return Section{Tag: tag, Align: align, Payload: func(sw *Writer) error {
		sw.Int(7)
		sw.Floats(big)
		return sw.Err()
	}}
}

func writeTestContainer(t *testing.T, sections ...Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteContainer(&buf, testFrame.Magic, 3, sections)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteContainer reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// restampCRC recomputes the trailing checksum of a patched image.
func restampCRC(image []byte) []byte {
	out := bytes.Clone(image)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

func readers(image []byte) map[string]*Reader {
	return map[string]*Reader{"stream": NewReader(bytes.NewReader(image)), "bytes": NewBytesReader(image)}
}

// TestFrameAlignsPerSection: alignment belongs to the section, not the
// container — an aligned section lands its big array on the boundary,
// a packed one in the same file pays no pad, and both decode through
// Payload.Reader under the alignment they were written with.
func TestFrameAlignsPerSection(t *testing.T) {
	const align = 512
	image := writeTestContainer(t, floatsSection(tagA, align), floatsSection(tagB, 0))
	packed := writeTestContainer(t, floatsSection(tagA, 0), floatsSection(tagB, 0))
	if pad := len(image) - len(packed); pad <= 0 || pad >= align {
		t.Fatalf("aligning one of two sections added %d bytes, want a single pad in (0,%d)", pad, align)
	}
	for name, br := range readers(image) {
		version, secs, err := ReadContainer(br, &testFrame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if version != 3 || len(secs) != 2 || secs[0].Tag != tagA || secs[1].Tag != tagB {
			t.Fatalf("%s: version %d, sections %v", name, version, secs)
		}
		for i, a := range []int{align, 0} {
			pr := secs[i].Reader(a)
			if pr.Int() != 7 {
				t.Fatalf("%s: section %d scalar lost", name, i)
			}
			got := pr.FloatsView(len(big))
			if err := pr.Err(); err != nil || len(got) != len(big) {
				t.Fatalf("%s: section %d array: %d elements, err %v", name, i, len(got), err)
			}
			arrayBytes := int64(len(big)) * 8
			if at := secs[i].Base + pr.Count() - arrayBytes; a > 0 && at%int64(a) != 0 {
				t.Fatalf("%s: aligned array starts at file offset %d", name, at)
			}
			if a == 0 && pr.Count() != 8+8+arrayBytes {
				t.Fatalf("%s: packed section consumed %d bytes, want no pad", name, pr.Count())
			}
		}
	}
}

// TestFrameSkipsUnknownAndKeepsDuplicates: an unlisted tag is skipped
// (still checksummed), duplicates come back in file order for the
// format to judge, and ReadSections rejects them and missing sections.
func TestFrameSkipsUnknownAndKeepsDuplicates(t *testing.T) {
	scalar := func(tag [4]byte, v int) Section {
		return Section{Tag: tag, Payload: func(sw *Writer) error { sw.Int(v); return sw.Err() }}
	}
	image := writeTestContainer(t, scalar(tagA, 1), scalar(tagX, 9), scalar(tagA, 2), scalar(tagB, 3))
	for name, br := range readers(image) {
		_, secs, err := ReadContainer(br, &testFrame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []int
		for _, s := range secs {
			got = append(got, s.Reader(0).Int())
		}
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("%s: decoded sections %v, want [1 2 3]", name, got)
		}
	}
	if _, _, err := ReadSections(NewBytesReader(image), &testFrame); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("ReadSections on a duplicate section: %v", err)
	}
	if _, _, err := ReadSections(NewBytesReader(writeTestContainer(t, scalar(tagA, 1))), &testFrame); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("ReadSections on a missing section: %v", err)
	}
}

// TestFrameRejectsMalformed: the header, the framing and the checksum
// each fail with an error, on both reader kinds where both check.
func TestFrameRejectsMalformed(t *testing.T) {
	image := writeTestContainer(t, floatsSection(tagA, 0))
	patch := func(at int, b byte) []byte {
		out := bytes.Clone(image)
		out[at] = b
		return restampCRC(out)
	}
	endLen := len(image) - 12
	cases := map[string][]byte{
		"wrong magic":            patch(0, 'X'),
		"version below":          patch(8, 1),
		"version above":          patch(8, 4),
		"end marker with length": patch(endLen, 5),
		"oversized section":      patch(12+4+7, 0x7F),
		"cut before checksum":    image[:len(image)-4],
		"cut inside a section":   image[:len(image)/2],
		"empty":                  {},
		"nil":                    nil,
	}
	for label, data := range cases {
		for name, br := range readers(data) {
			if _, _, err := ReadContainer(br, &testFrame); err == nil {
				t.Fatalf("%s (%s): accepted", label, name)
			}
		}
	}
	flipped := bytes.Clone(image)
	flipped[len(flipped)/2] ^= 0xFF
	if _, _, err := ReadContainer(NewReader(bytes.NewReader(flipped)), &testFrame); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("streamed bit flip: %v, want a checksum mismatch", err)
	}
	if _, _, err := ReadContainer(NewBytesReader(flipped), &testFrame); err != nil {
		t.Fatalf("in-memory load verified the checksum it is documented to skip: %v", err)
	}
}

// TestFrameSectionLengthMismatch: a payload codec that writes different
// bytes on its two passes is caught, not framed with a lying length.
func TestFrameSectionLengthMismatch(t *testing.T) {
	calls := 0
	unstable := Section{Tag: tagA, Payload: func(sw *Writer) error {
		calls++
		sw.Ints(make([]int, calls))
		return sw.Err()
	}}
	if _, err := WriteContainer(io.Discard, testFrame.Magic, 2, []Section{unstable}); err == nil {
		t.Fatal("a section whose passes disagree was written")
	}
}

func TestSaveVersion(t *testing.T) {
	for _, tc := range []struct {
		f32   bool
		align int
		want  uint32
	}{{false, 0, 2}, {true, 0, 3}, {false, 4096, 3}, {true, 64, 3}} {
		if got := testFrame.SaveVersion(tc.f32, tc.align); got != tc.want {
			t.Fatalf("SaveVersion(%v, %d) = %d, want %d", tc.f32, tc.align, got, tc.want)
		}
	}
}

// TestBytesReaderOverNilImage: bytes mode does not depend on the slice
// being non-nil — every read of an empty image is a truncation.
func TestBytesReaderOverNilImage(t *testing.T) {
	for _, image := range [][]byte{nil, {}} {
		r := NewBytesReader(image)
		if r.CRCTracked() {
			t.Fatal("a bytes-backed reader claims to track a CRC")
		}
		if v := r.View(0); r.Err() != nil || len(v) != 0 {
			t.Fatalf("zero-length view of an empty image: %v, err %v", v, r.Err())
		}
		r.Uint32()
		if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
			t.Fatalf("read of an empty image: err %v, want io.ErrUnexpectedEOF", r.Err())
		}
		for name, read := range map[string]func(*Reader){
			"View":       func(r *Reader) { r.View(4) },
			"FloatsView": func(r *Reader) { r.FloatsView(4) },
			"Skip":       func(r *Reader) { r.Skip(4) },
		} {
			r := NewBytesReader(image)
			read(r)
			if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
				t.Fatalf("%s of an empty image: err %v, want io.ErrUnexpectedEOF", name, r.Err())
			}
		}
	}
}

// TestStreamViewCarriesNoSlack: a streamed section copy is what decoded
// views keep alive, so it must not hold growth slack — and a length
// that lies about a short stream must fail on the missing bytes, having
// allocated no more than twice what arrived.
func TestStreamViewCarriesNoSlack(t *testing.T) {
	const n = 5<<20 + 123
	src := bytes.Repeat([]byte{0xAB}, n)
	r := NewReader(bytes.NewReader(src))
	got := r.View(n)
	if r.Err() != nil || !bytes.Equal(got, src) {
		t.Fatalf("streamed view: %d bytes, err %v", len(got), r.Err())
	}
	if cap(got) != n {
		t.Fatalf("streamed view of %d bytes has capacity %d", n, cap(got))
	}
	r = NewReader(bytes.NewReader(src[:1<<20]))
	if r.View(MaxCount); !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("lying length: err %v, want io.ErrUnexpectedEOF", r.Err())
	}
}
