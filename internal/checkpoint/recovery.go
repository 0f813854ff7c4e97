package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"

	"numarck/internal/faultfs"
	"numarck/internal/obs"
)

// RecoveryReport summarizes what the Open-time recovery scan found and
// did. A clean reopen after a graceful shutdown has every slice empty
// and TornJournalTail false.
type RecoveryReport struct {
	// Scanned is the number of checkpoint files examined.
	Scanned int
	// Adopted lists committed files the journal had no record of (the
	// crash window between rename and journal append); the scan
	// validated and re-recorded them.
	Adopted []string
	// Quarantined lists torn or corrupt files moved to quarantine/.
	Quarantined []string
	// TempsRemoved lists leftover atomic-write temporaries (.tmp) from
	// interrupted writes, deleted by the scan.
	TempsRemoved []string
	// Missing lists journaled files absent from the directory; their
	// records were dropped.
	Missing []string
	// TornJournalTail reports that the journal's final record was torn
	// by a crash mid-append (a record cut short is ignored and its file,
	// if committed, re-adopted; one that lost only its newline is kept).
	// Either way the journal was compacted.
	TornJournalTail bool
}

// Clean reports whether the scan found nothing to repair.
func (r *RecoveryReport) Clean() bool {
	return r == nil || (len(r.Adopted) == 0 && len(r.Quarantined) == 0 &&
		len(r.TempsRemoved) == 0 && len(r.Missing) == 0 && !r.TornJournalTail)
}

// String renders the report as a one-line summary.
func (r *RecoveryReport) String() string {
	if r.Clean() {
		return fmt.Sprintf("clean (%d files)", r.scannedCount())
	}
	return fmt.Sprintf("%d files: %d adopted, %d quarantined, %d temps removed, %d missing, torn journal tail %v",
		r.scannedCount(), len(r.Adopted), len(r.Quarantined), len(r.TempsRemoved), len(r.Missing), r.TornJournalTail)
}

// scannedCount is Scanned on a possibly-nil report.
func (r *RecoveryReport) scannedCount() int {
	if r == nil {
		return 0
	}
	return r.Scanned
}

// recoverScan reconciles the MANIFEST journal with the directory
// contents. It never fails the store for a bad checkpoint file: torn
// and corrupt files are quarantined, uncommitted temporaries removed,
// committed-but-unjournaled files adopted, and journaled-but-missing
// files dropped from the journal. Only filesystem-level failures (the
// scan itself cannot read the directory or move a file) are errors.
//
// The scan leaves the store's in-memory chain loaded with the
// reconciled live file set, and finishes by validating the CHAININDEX
// against the journal: a fresh index is adopted, a missing, stale, or
// corrupt one is rebuilt from the chain and republished (counted in
// index_rebuilds).
func (st *Store) recoverScan() (*RecoveryReport, error) {
	report := &RecoveryReport{}
	// A store with no journal at all is a legacy layout: every file
	// lands in the adoption path below and the journal gets built.
	journal, exists, tornTail, err := replayJournal(st.fs, st.dir)
	if err != nil {
		return nil, err
	}
	if journal == nil {
		journal = map[string]journalEntry{}
	}
	if !exists {
		// Seed the journal file now: the chain index (and read views)
		// anchor their freshness to it, so it must exist even for an
		// adopted legacy store with no checkpoint files yet.
		if err := seedJournal(st.fs, st.dir); err != nil {
			return nil, err
		}
	}
	report.TornJournalTail = tornTail
	if tornTail {
		// Appending after a torn line would concatenate into it; compact
		// the journal to its live entries before the scan adds records.
		if err := rewriteJournal(st.fs, st.dir, journal); err != nil {
			return nil, err
		}
	}

	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, pathErr("scan", st.dir, err)
	}
	torn := 0
	onDisk := map[string]bool{}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || isStoreMetaFile(name) {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			// An atomic write that never reached its rename: the commit
			// did not happen, so the temp is garbage by construction.
			if err := st.fs.Remove(filepath.Join(st.dir, name)); err != nil {
				return nil, pathErr("remove temp", filepath.Join(st.dir, name), err)
			}
			report.TempsRemoved = append(report.TempsRemoved, name)
			torn++
			continue
		}
		e, ok := parseName(name)
		if !ok {
			continue // not a checkpoint file; leave it alone
		}
		report.Scanned++
		if verr := validateIdentity(e.Variable, e.Iteration); verr != nil {
			// A checkpoint-shaped name that violates the naming rules
			// (current writers reject such names before the filesystem
			// sees them) cannot be represented in the chain index;
			// quarantine it rather than carry it in the chain.
			if err := st.quarantine(name); err != nil {
				return nil, err
			}
			if _, journaled := journal[name]; journaled {
				if err := appendJournal(st.fs, st.dir, journalRecord{Op: "drop", Name: name}); err != nil {
					return nil, err
				}
				delete(journal, name)
			}
			report.Quarantined = append(report.Quarantined, name)
			continue
		}
		je, journaled := journal[name]
		switch {
		case journaled:
			// The journal records the committed length; a shorter file
			// is torn, any other mismatch is corruption. Content CRC is
			// deliberately not re-checked here (Open stays O(files), and
			// every read path CRC-checks anyway); Verify does the deep
			// cross-check.
			info, err := st.fs.Stat(filepath.Join(st.dir, name))
			if err != nil {
				return nil, pathErr("stat", filepath.Join(st.dir, name), err)
			}
			if info.Size() != je.Len {
				if info.Size() < je.Len {
					torn++
				}
				if err := st.quarantine(name); err != nil {
					return nil, err
				}
				if err := appendJournal(st.fs, st.dir, journalRecord{Op: "drop", Name: name}); err != nil {
					return nil, err
				}
				// Drop the replayed entry too, or the missing-file pass
				// below would report (and drop) it a second time.
				delete(journal, name)
				report.Quarantined = append(report.Quarantined, name)
				continue
			}
			onDisk[name] = true
		default:
			// Legacy store or the rename-vs-journal crash window: adopt
			// the file if it parses, quarantine it otherwise.
			raw, err := faultfs.ReadFile(st.fs, filepath.Join(st.dir, name))
			if err != nil {
				return nil, pathErr("read", filepath.Join(st.dir, name), err)
			}
			if _, _, _, perr := parseCheckpoint(raw, false); perr != nil {
				if errors.Is(perr, ErrTruncated) {
					torn++
				}
				if err := st.quarantine(name); err != nil {
					return nil, err
				}
				report.Quarantined = append(report.Quarantined, name)
				continue
			}
			adopted := journalEntry{Len: int64(len(raw)), CRC: crc32.ChecksumIEEE(raw)}
			if err := appendJournal(st.fs, st.dir, journalRecord{
				Op: "add", Name: name, Len: adopted.Len, CRC: adopted.CRC,
			}); err != nil {
				return nil, err
			}
			journal[name] = adopted
			onDisk[name] = true
			report.Adopted = append(report.Adopted, name)
		}
	}
	// Journaled files that are gone from the directory: drop their
	// records so the journal converges back to the truth.
	var missing []string
	for name := range journal {
		if !onDisk[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		if err := appendJournal(st.fs, st.dir, journalRecord{Op: "drop", Name: name}); err != nil {
			return nil, err
		}
		delete(journal, name)
		report.Missing = append(report.Missing, name)
	}
	if !report.Clean() {
		if err := st.fs.SyncDir(st.dir); err != nil {
			return nil, pathErr("sync", st.dir, err)
		}
	}
	st.chain, st.view = journal, nil
	if err := st.reconcileIndex(); err != nil {
		return nil, err
	}
	st.rec.Add(obs.CounterRecoveryScans, 1)
	st.rec.Add(obs.CounterTornFilesDetected, int64(torn))
	return report, nil
}

// reconcileIndex validates the on-disk CHAININDEX against the
// reconciled chain at the end of the recovery scan. An index that
// parses and is anchored to the journal's current state is adopted
// (its sequence continues); anything else — absent, corrupt, or stale,
// including the common case where the scan itself just appended repair
// records — is rebuilt from the in-memory chain and republished.
func (st *Store) reconcileIndex() error {
	tok, err := readJournalToken(st.fs, st.dir)
	if err != nil {
		return err
	}
	ix, ierr := loadIndex(st.fs, st.dir)
	if ierr == nil && ix != nil && ix.matches(tok) {
		st.indexSeq = ix.Seq
		return nil
	}
	if ix != nil {
		st.indexSeq = ix.Seq
	}
	st.rec.Add(obs.CounterIndexRebuilds, 1)
	return st.republishIndex()
}

// quarantine moves a bad checkpoint file into the quarantine/
// subdirectory, preserving it for inspection without letting it break
// the chain scan. An existing quarantined file of the same name is
// overwritten (rename semantics), which keeps quarantine idempotent.
func (st *Store) quarantine(name string) error {
	qdir := filepath.Join(st.dir, quarantineDir)
	if err := st.fs.MkdirAll(qdir, 0o755); err != nil {
		return pathErr("quarantine", qdir, err)
	}
	src := filepath.Join(st.dir, name)
	if err := st.fs.Rename(src, filepath.Join(qdir, name)); err != nil {
		return pathErr("quarantine", src, err)
	}
	return nil
}

// Quarantined lists the files currently held in quarantine/, sorted by
// name. An absent quarantine directory means none.
func (st *Store) Quarantined() ([]string, error) {
	qdir := filepath.Join(st.dir, quarantineDir)
	if _, err := st.fs.Stat(qdir); err != nil {
		return nil, nil
	}
	entries, err := st.fs.ReadDir(qdir)
	if err != nil {
		return nil, pathErr("list", qdir, err)
	}
	var out []string
	for _, de := range entries {
		if !de.IsDir() {
			out = append(out, de.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}
