package mogul

// The container frame shared by the MOGULEMR, MOGULSPC and MOGULSHD
// files (docs/FORMAT.md): an 8-byte magic, a format version, tag/length
// section framing (unknown tags skipped for additive evolution), an end
// marker, and a trailing CRC-32 over everything before it. One writer
// and one reader serve all three; the reader walks a binio.Reader
// whether it streams from an io.Reader (payloads copied, CRC verified)
// or parses an in-memory image such as an mmap'd file (payloads are
// views, CRC skipped — hashing would fault in every page).

import (
	"bufio"
	"fmt"
	"io"
	"slices"

	"mogul/internal/binio"
)

// tagEend closes every container.
var tagEend = [4]byte{'E', 'N', 'D', 0}

// frame describes one container kind to the reader.
type frame struct {
	magic string
	// kind names the container in error messages ("EMR engine").
	kind                   string
	minVersion, maxVersion uint32
	// plainVersion is what an unaligned float64 engine Save writes; f32
	// and aligned saves write maxVersion (engine.save; unused by
	// MOGULSHD, which has one layout per version).
	plainVersion uint32
	// tags are the sections this build decodes; any other is skipped.
	tags [][4]byte
}

// section is one tagged payload of a container being written. The
// payload codec runs twice (count, then stream) and must produce
// identical bytes both times.
type section struct {
	tag     [4]byte
	payload func(sw *binio.Writer) error
}

// frameSection is one decoded section: its payload bytes and the
// absolute file offset of their first byte (the alignment rule needs
// it).
type frameSection struct {
	tag     [4]byte
	payload []byte
	base    int64
}

// writeSection frames one payload with a two-pass scheme (count first,
// then stream), which keeps Save at O(1) extra memory however large the
// payload. Both passes hand the codec a sub-writer that knows the
// absolute offset of its byte 0, so alignment pads come out identical
// in the counting pass and the real pass; the locks held by Save freeze
// the engine, so the content does too.
func writeSection(bw *binio.Writer, s section, align int) error {
	base := bw.Count() + 12 // the 4-byte tag and 8-byte length precede the payload
	cw := binio.NewWriter(io.Discard)
	cw.EnableAlign(align, base)
	if err := s.payload(cw); err != nil {
		return err
	}
	if err := cw.Err(); err != nil {
		return err
	}
	bw.Raw(s.tag[:])
	bw.Uint64(uint64(cw.Count()))
	sw := binio.NewWriter(bw)
	sw.EnableAlign(align, base)
	if err := s.payload(sw); err != nil {
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

// writeContainer writes a whole container: header, sections, end
// marker, checksum.
func writeContainer(w io.Writer, magic string, version uint32, align int, sections []section) error {
	buffered := bufio.NewWriterSize(w, 1<<20)
	bw := binio.NewWriter(buffered)
	bw.Raw([]byte(magic))
	bw.Uint32(version)
	for i, s := range sections {
		if err := writeSection(bw, s, align); err != nil {
			return fmt.Errorf("mogul: writing section %d (%q): %w", i, s.tag[:], err)
		}
	}
	bw.Raw(tagEend[:])
	bw.Uint64(0)
	bw.Uint32(bw.Sum32())
	if err := bw.Err(); err != nil {
		return err
	}
	return buffered.Flush()
}

// readContainer walks a container and returns its format version and,
// in file order, every section whose tag the frame lists. Malformed
// input of any kind — wrong magic, unknown version, truncation, an
// oversized section, a checksum mismatch — yields an error, never a
// panic.
func readContainer(br *binio.Reader, f *frame) (uint32, []frameSection, error) {
	magic := make([]byte, len(f.magic))
	br.Raw(magic)
	if err := br.Err(); err != nil {
		return 0, nil, fmt.Errorf("mogul: reading %s header: %w", f.kind, err)
	}
	if string(magic) != f.magic {
		return 0, nil, fmt.Errorf("mogul: not a %s file (magic %q)", f.kind, magic)
	}
	version := br.Uint32()
	if err := br.Err(); err != nil {
		return 0, nil, fmt.Errorf("mogul: reading %s header: %w", f.kind, err)
	}
	if version < f.minVersion || version > f.maxVersion {
		return 0, nil, fmt.Errorf("mogul: %s format version %d, this build reads versions %d-%d", f.kind, version, f.minVersion, f.maxVersion)
	}

	var secs []frameSection
	for {
		var tag [4]byte
		br.Raw(tag[:])
		n := br.Uint64()
		if err := br.Err(); err != nil {
			return 0, nil, fmt.Errorf("mogul: reading section header: %w", err)
		}
		if tag == tagEend {
			if n != 0 {
				return 0, nil, fmt.Errorf("mogul: end marker carries %d payload bytes", n)
			}
			break
		}
		if n > binio.MaxCount {
			return 0, nil, fmt.Errorf("mogul: section %q claims %d bytes", tag[:], n)
		}
		if !slices.Contains(f.tags, tag) {
			// A section from a newer writer: skip (the bytes still count
			// toward the checksum), keeping additive evolution open.
			br.Skip(int64(n))
			if err := br.Err(); err != nil {
				return 0, nil, fmt.Errorf("mogul: skipping %q section: %w", tag[:], err)
			}
			continue
		}
		base := br.Count()
		payload := br.View(int(n))
		if err := br.Err(); err != nil {
			return 0, nil, fmt.Errorf("mogul: reading %q section: %w", tag[:], err)
		}
		secs = append(secs, frameSection{tag: tag, payload: payload, base: base})
	}
	// A bytes-backed reader keeps no CRC, but the checksum must at least
	// be present, so a file cut right after the end marker still errors.
	want := br.Sum32()
	got := br.Uint32()
	if err := br.Err(); err != nil {
		return 0, nil, fmt.Errorf("mogul: reading checksum: %w", err)
	}
	if br.CRCTracked() && got != want {
		return 0, nil, fmt.Errorf("mogul: checksum mismatch (file %08x, computed %08x): %s file is corrupt", got, want, f.kind)
	}
	return version, secs, nil
}

// readSections is readContainer for containers whose sections are all
// required and unique, indexed by tag.
func readSections(br *binio.Reader, f *frame) (uint32, map[[4]byte]frameSection, error) {
	version, list, err := readContainer(br, f)
	if err != nil {
		return 0, nil, err
	}
	secs := make(map[[4]byte]frameSection, len(list))
	for _, s := range list {
		if _, dup := secs[s.tag]; dup {
			return 0, nil, fmt.Errorf("mogul: duplicate %q section", s.tag[:])
		}
		secs[s.tag] = s
	}
	for _, tag := range f.tags {
		if _, ok := secs[tag]; !ok {
			return 0, nil, fmt.Errorf("mogul: %s file is missing its %q section", f.kind, tag[:])
		}
	}
	return version, secs, nil
}
