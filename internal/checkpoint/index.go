package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"

	"numarck/internal/faultfs"
)

// The CHAININDEX file is the store's metadata fast path: a compact
// binary image of the live checkpoint chain (every committed file's
// variable, kind, iteration, length, and CRC) that the writer rebuilds
// from its in-memory chain state and atomically republishes after every
// commit, and that readers parse in one bounded read — no journal
// replay, no directory scan, regardless of chain length.
//
// Byte layout (all integers little-endian; see FORMAT.md):
//
//	header (32 B):
//	  magic "NMRKX1" | version u16 | seq u64
//	  | journal len u64 | journal tail CRC u32 | entry count u32
//	records (88 B each, sorted by file name):
//	  variable (64 B, NUL-padded) | kind u8 | status u8 | reserved u16
//	  | iteration u32 | file len u64 | file CRC u32 | reserved u32
//	trailer:
//	  CRC32-IEEE of every preceding byte (u32)
//
// Freshness is anchored to the MANIFEST journal, the durable source of
// truth: the header records the journal's byte length and the CRC of
// its final bytes (the last indexTailWindow bytes) at publish time. A
// reader validates an index by statting the journal and re-hashing that
// tail — two O(1) operations — and falls back to an in-memory journal
// replay when they disagree. A stale or corrupt index is therefore
// detectable and never a source of wrong answers.
const indexName = "CHAININDEX"

// indexMagic starts every chain-index file.
var indexMagic = []byte("NMRKX1")

// indexVersion is the current chain-index layout version.
const indexVersion = 1

// Fixed section sizes of the chain-index layout.
const (
	indexHeaderSize = 32
	indexRecordSize = 88
	// indexVarBytes is the fixed width of the variable-name field; it
	// matches MaxVariableLen.
	indexVarBytes = 64
	// indexTailWindow is how many trailing journal bytes the freshness
	// CRC covers.
	indexTailWindow = 256
)

// IndexEntry is one record of the chain index: one committed
// checkpoint file.
type IndexEntry struct {
	Entry
	// Len and CRC mirror the file's MANIFEST journal record.
	Len int64
	CRC uint32
	// Status is the record's status byte; 0 is the only value written
	// today (live), the field exists so future compaction states do not
	// need a layout bump.
	Status byte
}

// ChainIndex is a parsed CHAININDEX file.
type ChainIndex struct {
	// Seq is the publication sequence number, bumped by the writer on
	// every publish.
	Seq uint64
	// JournalLen and JournalTailCRC anchor the index to the journal
	// state it was built from.
	JournalLen     int64
	JournalTailCRC uint32
	// Entries lists the live chain, sorted by file name.
	Entries []IndexEntry
}

// journalToken is the freshness anchor read from the live journal: its
// byte length and the CRC of its trailing indexTailWindow bytes.
type journalToken struct {
	Len     int64
	TailCRC uint32
}

// readJournalToken stats the journal and hashes its tail. Both are
// O(1) in chain length. A missing journal is an error: every
// index-bearing store seeds one at Create.
func readJournalToken(fsys faultfs.FS, dir string) (journalToken, error) {
	path := filepath.Join(dir, journalName)
	info, err := fsys.Stat(path)
	if err != nil {
		return journalToken{}, pathErr("stat journal", path, err)
	}
	size := info.Size()
	n := size
	if n > indexTailWindow {
		n = indexTailWindow
	}
	if n == 0 {
		return journalToken{Len: 0, TailCRC: 0}, nil
	}
	f, err := fsys.Open(path)
	if err != nil {
		return journalToken{}, pathErr("open journal", path, err)
	}
	buf := make([]byte, n)
	_, rerr := f.ReadAt(buf, size-n)
	if cerr := f.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil && rerr != io.EOF {
		return journalToken{}, pathErr("read journal tail", path, rerr)
	}
	return journalToken{Len: size, TailCRC: crc32.ChecksumIEEE(buf)}, nil
}

// matches reports whether the index was built from journal state tok.
func (ix *ChainIndex) matches(tok journalToken) bool {
	return ix.JournalLen == tok.Len && ix.JournalTailCRC == tok.TailCRC
}

// marshalChainIndex renders the index image. Entries whose variable
// name violates the store's naming rules cannot be represented in the
// fixed-width record and are an error — the journal they came from is
// the problem, not the index.
func marshalChainIndex(ix *ChainIndex) ([]byte, error) {
	buf := make([]byte, 0, indexHeaderSize+indexRecordSize*len(ix.Entries)+4)
	hdr := make([]byte, indexHeaderSize)
	copy(hdr, indexMagic)
	binary.LittleEndian.PutUint16(hdr[6:], indexVersion)
	binary.LittleEndian.PutUint64(hdr[8:], ix.Seq)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(ix.JournalLen))
	binary.LittleEndian.PutUint32(hdr[24:], ix.JournalTailCRC)
	if len(ix.Entries) > 1<<24 {
		return nil, fmt.Errorf("checkpoint: chain index with %d entries is implausible", len(ix.Entries))
	}
	//lint:ignore bindex entry count bounded to 1<<24 above
	binary.LittleEndian.PutUint32(hdr[28:], uint32(len(ix.Entries)))
	buf = append(buf, hdr...)
	for _, e := range ix.Entries {
		if err := ValidateVariable(e.Variable); err != nil {
			return nil, fmt.Errorf("checkpoint: chain index cannot represent %q: %w", e.Variable, err)
		}
		if e.Iteration < 0 || e.Iteration > 1<<31-1 {
			return nil, fmt.Errorf("checkpoint: chain index cannot represent iteration %d", e.Iteration)
		}
		rec := make([]byte, indexRecordSize)
		copy(rec[:indexVarBytes], e.Variable)
		rec[64] = kindByte(e.Kind)
		rec[65] = e.Status
		//lint:ignore bindex iteration bounded to [0, 1<<31) above
		binary.LittleEndian.PutUint32(rec[68:], uint32(e.Iteration))
		binary.LittleEndian.PutUint64(rec[72:], uint64(e.Len))
		binary.LittleEndian.PutUint32(rec[80:], e.CRC)
		buf = append(buf, rec...)
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(buf))
	return append(buf, crcBuf[:]...), nil
}

// kindByte maps a checkpoint kind to its record byte.
func kindByte(kind string) byte {
	if kind == "delta" {
		return 1
	}
	return 0
}

// kindName maps a record byte back to the checkpoint kind.
func kindName(b byte) (string, bool) {
	switch b {
	case 0:
		return "full", true
	case 1:
		return "delta", true
	default:
		return "", false
	}
}

// ParseChainIndex decodes a CHAININDEX image, verifying magic, version,
// framing, the trailing CRC, and every record's fields. Any violation
// is an ErrCorrupt (truncations additionally match ErrTruncated);
// callers treat a corrupt index as absent and rebuild from the journal,
// so a damaged index can cost time but never correctness.
func ParseChainIndex(raw []byte) (*ChainIndex, error) {
	if len(raw) < indexHeaderSize+4 {
		if n := min(len(raw), len(indexMagic)); string(raw[:n]) == string(indexMagic[:n]) {
			return nil, truncatedErr("chain index is %d bytes, shorter than its frame", len(raw))
		}
		return nil, fmt.Errorf("%w: chain index shorter than header", ErrCorrupt)
	}
	if string(raw[:6]) != string(indexMagic) {
		return nil, fmt.Errorf("%w: chain index magic %q", ErrCorrupt, raw[:6])
	}
	if v := binary.LittleEndian.Uint16(raw[6:]); v != indexVersion {
		return nil, fmt.Errorf("%w: chain index version %d", ErrCorrupt, v)
	}
	// The size math runs in int64 so a hostile count cannot wrap int on
	// 32-bit platforms into a want that passes the framing check while
	// the record loop slices out of range.
	count64 := int64(binary.LittleEndian.Uint32(raw[28:]))
	want64 := indexHeaderSize + indexRecordSize*count64 + 4
	if int64(len(raw)) != want64 {
		if int64(len(raw)) < want64 {
			return nil, truncatedErr("chain index %d bytes, %d records need %d", len(raw), count64, want64)
		}
		return nil, fmt.Errorf("%w: chain index %d bytes, %d records need %d", ErrCorrupt, len(raw), count64, want64)
	}
	count, want := int(count64), int(want64)
	body := raw[:want-4]
	if crc := crc32.ChecksumIEEE(body); crc != binary.LittleEndian.Uint32(raw[want-4:]) {
		return nil, fmt.Errorf("%w: chain index CRC mismatch", ErrCorrupt)
	}
	ix := &ChainIndex{
		Seq:            binary.LittleEndian.Uint64(raw[8:]),
		JournalLen:     int64(binary.LittleEndian.Uint64(raw[16:])),
		JournalTailCRC: binary.LittleEndian.Uint32(raw[24:]),
	}
	if ix.JournalLen < 0 {
		return nil, fmt.Errorf("%w: chain index journal length %d", ErrCorrupt, ix.JournalLen)
	}
	ix.Entries = make([]IndexEntry, 0, count)
	for i := 0; i < count; i++ {
		rec := raw[indexHeaderSize+indexRecordSize*i:]
		variable := cString(rec[:indexVarBytes])
		iteration := int(binary.LittleEndian.Uint32(rec[68:]))
		if err := validateIdentity(variable, iteration); err != nil {
			return nil, fmt.Errorf("%w: chain index record %d: %w", ErrCorrupt, i, err)
		}
		kind, ok := kindName(rec[64])
		if !ok {
			return nil, fmt.Errorf("%w: chain index record %d: kind byte %d", ErrCorrupt, i, rec[64])
		}
		flen := int64(binary.LittleEndian.Uint64(rec[72:]))
		if flen < 0 {
			return nil, fmt.Errorf("%w: chain index record %d: length %d", ErrCorrupt, i, flen)
		}
		ix.Entries = append(ix.Entries, IndexEntry{
			Entry: Entry{
				Variable:  variable,
				Kind:      kind,
				Iteration: iteration,
			},
			Len:    flen,
			CRC:    binary.LittleEndian.Uint32(rec[80:]),
			Status: rec[65],
		})
	}
	return ix, nil
}

// cString cuts a NUL-padded fixed-width field back to a string.
func cString(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// indexFromChain builds the index image of a live chain map (file name
// → journal entry), the writer's in-memory state.
func indexFromChain(chain map[string]journalEntry, seq uint64, tok journalToken) (*ChainIndex, error) {
	names := make([]string, 0, len(chain))
	for name := range chain {
		names = append(names, name)
	}
	sort.Strings(names)
	ix := &ChainIndex{Seq: seq, JournalLen: tok.Len, JournalTailCRC: tok.TailCRC}
	for _, name := range names {
		e, ok := parseName(name)
		if !ok {
			return nil, fmt.Errorf("%w: journaled name %q is not a checkpoint file", ErrCorrupt, name)
		}
		je := chain[name]
		ix.Entries = append(ix.Entries, IndexEntry{Entry: e, Len: je.Len, CRC: je.CRC})
	}
	return ix, nil
}

// loadIndex reads and parses the store's CHAININDEX. A missing file is
// (nil, nil); a present-but-corrupt one is an error the callers count
// as a rebuild trigger.
func loadIndex(fsys faultfs.FS, dir string) (*ChainIndex, error) {
	path := filepath.Join(dir, indexName)
	if _, err := fsys.Stat(path); err != nil {
		return nil, nil
	}
	raw, err := faultfs.ReadFile(fsys, path)
	if err != nil {
		return nil, pathErr("read index", path, err)
	}
	return ParseChainIndex(raw)
}

// publishIndex atomically replaces the CHAININDEX with the image of
// chain at sequence seq, anchored to the journal's current state. The
// WriteFileAtomic rename is the publication point: readers see either
// the old complete index or the new complete index, never a mix.
func publishIndex(fsys faultfs.FS, dir string, chain map[string]journalEntry, seq uint64) error {
	tok, err := readJournalToken(fsys, dir)
	if err != nil {
		return err
	}
	ix, err := indexFromChain(chain, seq, tok)
	if err != nil {
		return err
	}
	raw, err := marshalChainIndex(ix)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, indexName)
	if err := faultfs.WriteFileAtomic(fsys, dir, path, raw); err != nil {
		return pathErr("publish index", path, err)
	}
	return nil
}
