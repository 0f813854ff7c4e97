package checkpoint

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"numarck/internal/core"
	"numarck/internal/faultfs"
)

// TestValidateVariable pins the naming rules: checkpoint file names are
// built from the variable, so anything that could traverse out of the
// store directory or collide with the name grammar must be rejected.
func TestValidateVariable(t *testing.T) {
	for _, ok := range []string{"dens", "velx_2", "T.v2", "a-b", "_x", "0momentum",
		strings.Repeat("v", MaxVariableLen)} {
		if err := ValidateVariable(ok); err != nil {
			t.Errorf("ValidateVariable(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{
		"", "../dens", "a/b", "/abs", "..", ".hidden", "-flag",
		"a b", "a\x00b", "a\nb", strings.Repeat("v", MaxVariableLen+1),
	} {
		if err := ValidateVariable(bad); !errors.Is(err, ErrBadVariable) {
			t.Errorf("ValidateVariable(%q) = %v, want ErrBadVariable", bad, err)
		}
	}
}

// TestWriteRejectsHostileVariable is the regression test for the
// path-escape bug class: a variable like "../../tmp/evil" must be
// refused by every write entry point with the typed error — before any
// file is created — and must leave no debris outside or inside the
// store.
func TestWriteRejectsHostileVariable(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "ck")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	series := genSeries(200, 2, 13)
	enc, err := core.Encode(series[0], series[1], opts())
	if err != nil {
		t.Fatal(err)
	}

	for _, hostile := range []string{"../escape", "sub/dir", "/abs", "a\x00b", ""} {
		if err := st.WriteFull(hostile, 0, series[0]); !errors.Is(err, ErrBadVariable) {
			t.Errorf("WriteFull(%q) = %v, want ErrBadVariable", hostile, err)
		}
		if _, err := st.WriteDelta(hostile, 1, series[0], series[1]); !errors.Is(err, ErrBadVariable) {
			t.Errorf("WriteDelta(%q) = %v, want ErrBadVariable", hostile, err)
		}
		if err := st.WriteEncodedDelta(hostile, 1, enc); !errors.Is(err, ErrBadVariable) {
			t.Errorf("WriteEncodedDelta(%q) = %v, want ErrBadVariable", hostile, err)
		}
	}
	// A bad iteration is the same class of refusal.
	if err := st.WriteFull("dens", -1, series[0]); !errors.Is(err, ErrBadVariable) {
		t.Errorf("WriteFull(iteration -1) = %v, want ErrBadVariable", err)
	}

	// Nothing escaped the store and nothing was journaled.
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ck" {
		t.Fatalf("store parent polluted: %v", entries)
	}
	vars, err := st.Variables()
	if err != nil || len(vars) != 0 {
		t.Fatalf("Variables = %v, %v after refused writes", vars, err)
	}
}

// TestRecoveryQuarantinesHostileName plants a parseable checkpoint file
// whose variable violates the naming rules (written by a buggy or
// malicious producer) and checks the recovery scan quarantines it
// rather than adopting a name the index cannot represent.
func TestRecoveryQuarantinesHostileName(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	seedStore(t, dir, 1)
	// A name that parses (variable.kind.iteration.nmk) but whose
	// variable starts with '.' — invalid, and impossible to journal into
	// the fixed-width index.
	bad := ".evil.full.000000.nmk"
	raw, err := MarshalFull(".evil", 0, genSeries(50, 1, 2)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bad), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open with hostile file: %v", err)
	}
	defer st.Close()
	rep := st.Recovery()
	found := false
	for _, q := range rep.Quarantined {
		if q == bad {
			found = true
		}
	}
	if !found {
		t.Fatalf("hostile file not quarantined: %s", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", bad)); err != nil {
		t.Fatalf("hostile file not in quarantine/: %v", err)
	}
	// The legitimate chain is untouched.
	if _, err := st.Restart("dens", 2); err != nil {
		t.Fatalf("restart after quarantine: %v", err)
	}
}

// statFails is a filesystem on which checkpoint files cannot be
// stat'ed — the EIO/EACCES case readCheckpointFile used to report as
// "no such checkpoint".
type statFails struct{ faultfs.FS }

func (s statFails) Stat(name string) (fs.FileInfo, error) {
	if strings.HasSuffix(name, ".nmk") {
		return nil, syscall.EIO
	}
	return s.FS.Stat(name)
}

// TestReadCheckpointFileErrors pins the error mapping of a chain-file
// read: only absence is ErrNotFound (with the identity in the message);
// an I/O failure on a committed file keeps its cause; and no Stat
// precedes the read, so a Stat failure cannot turn into a 404.
func TestReadCheckpointFileErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	seedStore(t, dir, 1)

	rv, err := OpenReadOnlyFS(dir, statFails{faultfs.OS()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rv.Restart("dens", 2); err != nil {
		t.Fatalf("restart on a filesystem whose Stat fails: %v", err)
	}

	inj := faultfs.NewInjector(faultfs.OS(), 1)
	inj.AddFault(faultfs.Fault{Op: faultfs.OpRead, Path: fileName("dens", "delta", 1), Nth: 1})
	if rv, err = OpenReadOnlyFS(dir, inj, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rv.Restart("dens", 2); !errors.Is(err, faultfs.ErrInjected) || errors.Is(err, ErrNotFound) {
		t.Fatalf("restart over an unreadable delta = %v, want the injected I/O error and not ErrNotFound", err)
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := os.Remove(filepath.Join(dir, fileName("dens", "delta", 2))); err != nil {
		t.Fatal(err)
	}
	_, err = st.Restart("dens", 2)
	if !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "delta checkpoint dens@2") {
		t.Fatalf("restart over a missing delta = %v, want ErrNotFound naming delta dens@2", err)
	}
}
