package binio

import (
	"bufio"
	"fmt"
	"io"
	"slices"
)

// The container frame shared by the MOGULIDX, MOGULEMR, MOGULSPC and
// MOGULSHD files (docs/FORMAT.md): an 8-byte magic, a format version,
// tag/length section framing (unknown tags skipped for additive
// evolution), an end marker, and a trailing CRC-32 over everything
// before it. One writer and one reader serve all four; the reader walks
// a Reader whether it streams from an io.Reader (payloads copied, CRC
// verified) or parses an in-memory image such as an mmap'd file
// (payloads are views, CRC skipped — hashing would fault in every
// page). What a format does with its sections — which are required,
// whether a duplicate is an error — stays with the format.

// endTag closes every container.
var endTag = [4]byte{'E', 'N', 'D', 0}

// Frame describes one container kind.
type Frame struct {
	Magic string
	// Kind names the container in error messages ("EMR engine").
	Kind                   string
	MinVersion, MaxVersion uint32
	// PlainVersion is what an unaligned float64 save writes; f32 and
	// aligned saves write MaxVersion (see SaveVersion).
	PlainVersion uint32
	// Tags are the sections this build decodes; any other is skipped.
	Tags [][4]byte
}

// SaveVersion is the version a save of this container writes: the plain
// one unless the layout needs the precision flag or the alignment that
// only the newest version records.
func (f *Frame) SaveVersion(f32 bool, align int) uint32 {
	if f32 || align > 0 {
		return f.MaxVersion
	}
	return f.PlainVersion
}

// Section is one tagged payload of a container being written. The
// payload codec runs twice (count, then stream) and must produce
// identical bytes both times.
type Section struct {
	Tag [4]byte
	// Align is the boundary this payload's large arrays pad to (the
	// aligned layout of align.go); 0 keeps the payload packed. It is per
	// section because MOGULIDX aligns only its graph and factor.
	Align   int
	Payload func(sw *Writer) error
}

// Payload is one decoded section: its bytes and the absolute file
// offset of their first byte (the alignment rule needs it).
type Payload struct {
	Tag  [4]byte
	Data []byte
	Base int64
}

// Reader opens the payload for decoding under the alignment it was
// written with. Array views alias Data.
func (p Payload) Reader(align int) *Reader {
	r := NewBytesReader(p.Data)
	r.EnableAlign(align, p.Base)
	return r
}

// writeSection frames one payload with a two-pass scheme (count first,
// then stream), which keeps a save at O(1) extra memory however large
// the payload. Both passes hand the codec a sub-writer that knows the
// absolute offset of its byte 0, so alignment pads come out identical
// in the counting pass and the real pass; the locks a save holds freeze
// the content.
func writeSection(bw *Writer, s Section) error {
	base := bw.Count() + 12 // the 4-byte tag and 8-byte length precede the payload
	cw := NewWriter(io.Discard)
	cw.EnableAlign(s.Align, base)
	if err := s.Payload(cw); err != nil {
		return err
	}
	if err := cw.Err(); err != nil {
		return err
	}
	bw.Raw(s.Tag[:])
	bw.Uint64(uint64(cw.Count()))
	sw := NewWriter(bw)
	sw.EnableAlign(s.Align, base)
	if err := s.Payload(sw); err != nil {
		return err
	}
	if err := sw.Err(); err != nil {
		return err
	}
	if sw.Count() != cw.Count() {
		return fmt.Errorf("mogul: section produced %d bytes, declared %d", sw.Count(), cw.Count())
	}
	return bw.Err()
}

// WriteContainer writes a whole container — header, sections, end
// marker, checksum — and returns the byte count. Output is buffered
// internally, so writing straight to an os.File is fine.
func WriteContainer(w io.Writer, magic string, version uint32, sections []Section) (int64, error) {
	buffered := bufio.NewWriterSize(w, 1<<20)
	bw := NewWriter(buffered)
	bw.Raw([]byte(magic))
	bw.Uint32(version)
	for _, s := range sections {
		if err := writeSection(bw, s); err != nil {
			return bw.Count(), fmt.Errorf("mogul: writing %q section: %w", s.Tag[:], err)
		}
	}
	bw.Raw(endTag[:])
	bw.Uint64(0)
	bw.Uint32(bw.Sum32())
	if err := bw.Err(); err != nil {
		return bw.Count(), err
	}
	return bw.Count(), buffered.Flush()
}

// ReadContainer walks a container and returns its format version and,
// in file order, every section whose tag the frame lists. Malformed
// input of any kind — wrong magic, unknown version, truncation, an
// oversized section, a checksum mismatch — yields an error, never a
// panic.
func ReadContainer(br *Reader, f *Frame) (uint32, []Payload, error) {
	magic := make([]byte, len(f.Magic))
	br.Raw(magic)
	if err := br.Err(); err != nil {
		return 0, nil, fmt.Errorf("mogul: reading %s header: %w", f.Kind, err)
	}
	if string(magic) != f.Magic {
		return 0, nil, fmt.Errorf("mogul: not a %s file (magic %q)", f.Kind, magic)
	}
	version := br.Uint32()
	if err := br.Err(); err != nil {
		return 0, nil, fmt.Errorf("mogul: reading %s header: %w", f.Kind, err)
	}
	if version < f.MinVersion || version > f.MaxVersion {
		return 0, nil, fmt.Errorf("mogul: %s format version %d, this build reads versions %d-%d", f.Kind, version, f.MinVersion, f.MaxVersion)
	}

	var secs []Payload
	for {
		var tag [4]byte
		br.Raw(tag[:])
		n := br.Uint64()
		if err := br.Err(); err != nil {
			return 0, nil, fmt.Errorf("mogul: reading section header: %w", err)
		}
		if tag == endTag {
			if n != 0 {
				return 0, nil, fmt.Errorf("mogul: end marker carries %d payload bytes", n)
			}
			break
		}
		if n > MaxCount {
			return 0, nil, fmt.Errorf("mogul: section %q claims %d bytes", tag[:], n)
		}
		if !slices.Contains(f.Tags, tag) {
			// A section from a newer writer: skip (the bytes still count
			// toward the checksum), keeping additive evolution open.
			br.Skip(int64(n))
			if err := br.Err(); err != nil {
				return 0, nil, fmt.Errorf("mogul: skipping %q section: %w", tag[:], err)
			}
			continue
		}
		base := br.Count()
		data := br.View(int(n))
		if err := br.Err(); err != nil {
			return 0, nil, fmt.Errorf("mogul: reading %q section: %w", tag[:], err)
		}
		secs = append(secs, Payload{Tag: tag, Data: data, Base: base})
	}
	// A bytes-backed reader keeps no CRC, but the checksum must at least
	// be present, so a file cut right after the end marker still errors.
	want := br.Sum32()
	got := br.Uint32()
	if err := br.Err(); err != nil {
		return 0, nil, fmt.Errorf("mogul: reading checksum: %w", err)
	}
	if br.CRCTracked() && got != want {
		return 0, nil, fmt.Errorf("mogul: checksum mismatch (file %08x, computed %08x): %s file is corrupt", got, want, f.Kind)
	}
	return version, secs, nil
}

// ReadSections is ReadContainer for containers whose sections are all
// required and unique, indexed by tag.
func ReadSections(br *Reader, f *Frame) (uint32, map[[4]byte]Payload, error) {
	version, list, err := ReadContainer(br, f)
	if err != nil {
		return 0, nil, err
	}
	secs := make(map[[4]byte]Payload, len(list))
	for _, s := range list {
		if _, dup := secs[s.Tag]; dup {
			return 0, nil, fmt.Errorf("mogul: duplicate %q section", s.Tag[:])
		}
		secs[s.Tag] = s
	}
	for _, tag := range f.Tags {
		if _, ok := secs[tag]; !ok {
			return 0, nil, fmt.Errorf("mogul: %s file is missing its %q section", f.Kind, tag[:])
		}
	}
	return version, secs, nil
}
