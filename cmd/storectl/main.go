// Command storectl inspects and maintains NUMARCK checkpoint stores.
//
// Usage:
//
//	storectl verify -dir store          # health report; exit 1 unless the store is clean
//	storectl stats  -dir store          # per-variable storage breakdown
//	storectl latest -dir store          # latest restorable iteration per variable
//	storectl gc     -dir store -keep 40 # drop checkpoints before the full <= 40
//
// verify opens the store as a writer, so its recovery scan runs, and
// reports what the scan repaired, every issue the deep Verify pass
// finds (parse, CRC, chain gap, journal cross-check), the files held in
// quarantine/, and the latest restorable iteration per variable. It
// exits non-zero unless every part is clean: a store the scan has just
// repaired is reported, not called clean.
//
// verify, stats, and latest also take -addr http://host:8377 (with
// -tenant name) to report on a store held by a running numarckd daemon
// through its lock-free chain API instead of opening the directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"numarck/internal/checkpoint"
	"numarck/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "latest":
		err = cmdLatest(os.Args[2:])
	case "gc":
		err = cmdGC(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "storectl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "storectl: %s\n", server.OperatorMessage(err))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  storectl verify -dir store | -addr url [-tenant t]
  storectl stats  -dir store | -addr url [-tenant t]
  storectl latest -dir store | -addr url [-tenant t]
  storectl gc     -dir store -keep N`)
}

// target is where a command points: a local store directory, or (with
// -addr) a tenant inside a running numarckd daemon.
type target struct {
	dir    string
	addr   string
	tenant string
}

// targetFlags parses the common -dir and -addr/-tenant flags.
func targetFlags(fs *flag.FlagSet, args []string) (*target, error) {
	var tg target
	fs.StringVar(&tg.dir, "dir", "", "checkpoint store directory")
	fs.StringVar(&tg.addr, "addr", "", "numarckd base URL: report on a daemon-held store over its lock-free chain API")
	fs.StringVar(&tg.tenant, "tenant", "default", "daemon mode: tenant to report on")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if tg.dir == "" && tg.addr == "" {
		return nil, fmt.Errorf("%s requires -dir or -addr", fs.Name())
	}
	return &tg, nil
}

// openStore opens the store read-write for maintenance commands that
// mutate it (verify's recovery scan, gc). The caller must Close it.
func openStore(tg *target) (*checkpoint.Store, error) {
	return checkpoint.Open(tg.dir)
}

// openView opens the lock-free read view for pure reporting commands,
// so they work alongside a live writer and on read-only media.
func openView(tg *target) (*checkpoint.ReadView, error) {
	return checkpoint.OpenReadOnly(tg.dir)
}

func cmdVerify(args []string) (err error) {
	tg, err := targetFlags(flag.NewFlagSet("verify", flag.ExitOnError), args)
	if err != nil {
		return err
	}
	if tg.addr != "" {
		return remoteVerify(tg.addr, tg.tenant)
	}
	st, err := openStore(tg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	fmt.Printf("recovery scan: %s\n", st.Recovery())
	fmt.Println(st.IndexHealth())
	issues, err := st.Verify()
	if err != nil {
		return err
	}
	for _, is := range issues {
		fmt.Printf("issue: %s\n", is)
	}
	quarantined, err := st.Quarantined()
	if err != nil {
		return err
	}
	for _, name := range quarantined {
		fmt.Printf("quarantined: %s\n", name)
	}
	vars, err := st.Variables()
	if err != nil {
		return err
	}
	unrestorable := 0
	for _, v := range vars {
		latest, err := st.LatestRestorable(v)
		if err != nil {
			fmt.Printf("%s: not restorable (%v)\n", v, err)
			unrestorable++
			continue
		}
		fmt.Printf("%s: restorable through iteration %d\n", v, latest)
	}
	return verdict(!st.Recovery().Clean(), len(issues), len(quarantined), unrestorable)
}

// verdict ends a verify report: "store is clean", or an error saying
// what is not.
func verdict(repaired bool, issues, quarantined, unrestorable int) error {
	if !repaired && issues == 0 && quarantined == 0 && unrestorable == 0 {
		fmt.Println("store is clean")
		return nil
	}
	return fmt.Errorf("store is not clean: repaired at open %v, %d issue(s), %d quarantined file(s), %d variable(s) not restorable",
		repaired, issues, quarantined, unrestorable)
}

func cmdStats(args []string) error {
	tg, err := targetFlags(flag.NewFlagSet("stats", flag.ExitOnError), args)
	if err != nil {
		return err
	}
	if tg.addr != "" {
		return remoteStats(tg.addr, tg.tenant)
	}
	st, err := openView(tg)
	if err != nil {
		return err
	}
	stats, err := st.Stats()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variable\tfulls\tdeltas\tfull bytes\tdelta bytes\ttotal\titers")
	var totF, totD int64
	for _, s := range stats {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t[%d,%d]\n",
			s.Variable, s.Fulls, s.Deltas, s.FullBytes, s.DeltaBytes, s.TotalBytes(), s.FirstIter, s.LastIter)
		totF += s.FullBytes
		totD += s.DeltaBytes
	}
	fmt.Fprintf(tw, "total\t\t\t%d\t%d\t%d\t\n", totF, totD, totF+totD)
	return tw.Flush()
}

func cmdLatest(args []string) error {
	tg, err := targetFlags(flag.NewFlagSet("latest", flag.ExitOnError), args)
	if err != nil {
		return err
	}
	if tg.addr != "" {
		return remoteLatest(tg.addr, tg.tenant)
	}
	st, err := openView(tg)
	if err != nil {
		return err
	}
	vars, err := st.Variables()
	if err != nil {
		return err
	}
	for _, v := range vars {
		latest, err := st.LatestRestorable(v)
		if err != nil {
			fmt.Printf("%s: %v\n", v, err)
			continue
		}
		fmt.Printf("%s: %d\n", v, latest)
	}
	return nil
}

func cmdGC(args []string) (err error) {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	keep := fs.Int("keep", -1, "keep restartability from this iteration onward")
	tg, err := targetFlags(fs, args)
	if err != nil {
		return err
	}
	if tg.addr != "" {
		return fmt.Errorf("gc mutates the store; run it against -dir, not a live daemon")
	}
	st, err := openStore(tg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	if *keep < 0 {
		return fmt.Errorf("gc requires -keep >= 0")
	}
	removed, err := st.GC(*keep)
	if err != nil {
		return err
	}
	fmt.Printf("removed %d file(s)\n", removed)
	return nil
}
