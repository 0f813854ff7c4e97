package main

// Remote mode: with -addr, storectl's reporting commands run against a
// numarckd daemon's lock-free chain API instead of opening the store
// directory themselves — safe while the daemon is writing.

import (
	"fmt"
	"os"
	"text/tabwriter"

	"numarck/internal/server"
)

// remoteVerify asks the daemon for a deep chain report (?verify=1) and
// renders it like the local verify command. The daemon's read view runs
// no recovery scan and reports no quarantine, so those parts are absent.
func remoteVerify(addr, tenant string) error {
	c := &server.Client{Base: addr, Tenant: tenant}
	tc, err := c.TenantChain(true)
	if err != nil {
		return err
	}
	fmt.Printf("index: present=%v fresh=%v seq=%d entries=%d\n",
		tc.Index.Present, tc.Index.Fresh, tc.Index.Seq, tc.Index.Entries)
	for _, is := range tc.Issues {
		fmt.Printf("issue: %s\n", is)
	}
	unrestorable := 0
	for _, v := range tc.Variables {
		latest, ok := tc.Latest[v]
		if !ok {
			fmt.Printf("%s: not restorable\n", v)
			unrestorable++
			continue
		}
		fmt.Printf("%s: restorable through iteration %d\n", v, latest)
	}
	return verdict(false, len(tc.Issues), 0, unrestorable)
}

// remoteStats renders the daemon's per-series storage breakdown with
// the same table the local stats command prints.
func remoteStats(addr, tenant string) error {
	c := &server.Client{Base: addr, Tenant: tenant}
	tc, err := c.TenantChain(false)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variable\tfulls\tdeltas\tfull bytes\tdelta bytes\ttotal\titers")
	var totF, totD int64
	for _, s := range tc.Stats {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t[%d,%d]\n",
			s.Variable, s.Fulls, s.Deltas, s.FullBytes, s.DeltaBytes, s.TotalBytes(), s.FirstIter, s.LastIter)
		totF += s.FullBytes
		totD += s.DeltaBytes
	}
	fmt.Fprintf(tw, "total\t\t\t%d\t%d\t%d\t\n", totF, totD, totF+totD)
	return tw.Flush()
}

// remoteLatest prints each series' latest restorable iteration from
// the daemon's chain report.
func remoteLatest(addr, tenant string) error {
	c := &server.Client{Base: addr, Tenant: tenant}
	tc, err := c.TenantChain(false)
	if err != nil {
		return err
	}
	for _, v := range tc.Variables {
		if latest, ok := tc.Latest[v]; ok {
			fmt.Printf("%s: %d\n", v, latest)
		} else {
			fmt.Printf("%s: not restorable\n", v)
		}
	}
	return nil
}
