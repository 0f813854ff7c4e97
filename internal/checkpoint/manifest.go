package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"numarck/internal/faultfs"
)

// The MANIFEST journal records the committed checkpoint chain: one JSON
// record per line. The "add" lines of a commit group are appended in
// one write and fsynced after the group's files are durably renamed
// into place; a "drop" is appended when a file is removed. Because the
// journal is strictly append-only and every record is a single line, a
// crash mid-append leaves a prefix of the group's lines whose last one
// may be torn; replay tolerates a torn tail and the recovery scan
// reconciles the journal against the directory contents (a committed
// file missing its "add" record is adopted, a journaled file that is
// missing or mismatched is quarantined or dropped).
const journalName = "MANIFEST"

// journalRecord is one line of the MANIFEST journal.
type journalRecord struct {
	// Op is "add" (file committed) or "drop" (file removed).
	Op string `json:"op"`
	// Name is the checkpoint file name within the store directory.
	Name string `json:"name"`
	// Len is the committed file's byte length (add records).
	Len int64 `json:"len,omitempty"`
	// CRC is the CRC-32 (IEEE) of the committed file's bytes (add
	// records).
	CRC uint32 `json:"crc,omitempty"`
	// PayloadCRC is the CRC-32 (IEEE) of the payload the commit was
	// requested with — for the daemon's value commits, the raw float64
	// body before encoding; zero when unknown (library writes, adopted
	// files, records from before the field existed). It is the durable
	// anchor of commit idempotency: a retried commit with a matching
	// payload CRC replays as success instead of double-applying.
	PayloadCRC uint32 `json:"pcrc,omitempty"`
}

// journalEntry is the live state of one journaled file after replay.
type journalEntry struct {
	Len        int64
	CRC        uint32
	PayloadCRC uint32
}

// appendJournal durably appends records: open in append mode, write
// their lines in one write, fsync, close. Each step is a distinct crash
// point the fault matrix exercises; a crash mid-write leaves a prefix
// of the lines, the last one possibly torn.
func appendJournal(fsys faultfs.FS, dir string, recs ...journalRecord) error {
	var buf []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("checkpoint: marshal journal record: %w", err)
		}
		buf = append(append(buf, line...), '\n')
	}
	path := filepath.Join(dir, journalName)
	f, err := fsys.Append(path)
	if err != nil {
		return pathErr("append", path, err)
	}
	_, werr := f.Write(buf)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return pathErr("append", path, werr)
	}
	return nil
}

// seedJournal durably creates an empty journal file. Create calls it
// for new stores and the recovery scan for adopted legacy stores: the
// chain index and every read view anchor their freshness checks to the
// journal, so it must exist even when nothing is committed yet.
func seedJournal(fsys faultfs.FS, dir string) error {
	path := filepath.Join(dir, journalName)
	f, err := fsys.Append(path)
	if err != nil {
		return pathErr("create journal", path, err)
	}
	werr := f.Sync()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return pathErr("create journal", path, werr)
	}
	return nil
}

// rewriteJournal atomically replaces the MANIFEST with one fresh "add"
// record per live entry, in sorted name order. The recovery scan uses
// it to repair a torn tail: appending after a torn line would
// concatenate into it and corrupt the record, so the journal is
// compacted first.
func rewriteJournal(fsys faultfs.FS, dir string, entries map[string]journalEntry) error {
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		je := entries[name]
		line, err := json.Marshal(journalRecord{Op: "add", Name: name, Len: je.Len, CRC: je.CRC, PayloadCRC: je.PayloadCRC})
		if err != nil {
			return fmt.Errorf("checkpoint: marshal journal record: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	path := filepath.Join(dir, journalName)
	if err := faultfs.WriteFileAtomic(fsys, dir, path, buf.Bytes()); err != nil {
		return pathErr("rewrite", path, err)
	}
	return nil
}

// replayJournal reads the MANIFEST and folds its records into the live
// file set. A final line without its newline (the signature of a crash
// mid-append) is tolerated and reported via tornTail: dropped if it
// does not parse, folded if only the newline was lost — either way the
// next append would run into it, so the caller compacts the journal
// first. Torn or invalid records anywhere else are corruption. exists
// reports whether the journal file is present at all — absent means a
// legacy store from before the journal existed, whose files the
// recovery scan adopts.
func replayJournal(fsys faultfs.FS, dir string) (entries map[string]journalEntry, exists, tornTail bool, err error) {
	path := filepath.Join(dir, journalName)
	if _, serr := fsys.Stat(path); serr != nil {
		return nil, false, false, nil
	}
	raw, err := faultfs.ReadFile(fsys, path)
	if err != nil {
		return nil, true, false, pathErr("read", path, err)
	}
	entries = map[string]journalEntry{}
	lines := strings.Split(string(raw), "\n")
	for i, line := range lines {
		if line == "" {
			continue
		}
		var rec journalRecord
		if jerr := json.Unmarshal([]byte(line), &rec); jerr != nil || (rec.Op != "add" && rec.Op != "drop") {
			if i == len(lines)-1 {
				// No trailing newline and unparsable: a torn append.
				return entries, true, true, nil
			}
			return nil, true, false, fmt.Errorf("%w: journal record %d: %q", ErrCorrupt, i+1, line)
		}
		switch rec.Op {
		case "add":
			entries[rec.Name] = journalEntry{Len: rec.Len, CRC: rec.CRC, PayloadCRC: rec.PayloadCRC}
		case "drop":
			delete(entries, rec.Name)
		}
	}
	return entries, true, len(raw) > 0 && raw[len(raw)-1] != '\n', nil
}
