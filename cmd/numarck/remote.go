package main

// Remote mode: with -addr, the numarck CLI becomes a client of a
// running numarckd daemon instead of touching files and stores
// directly. The daemon owns the store; the CLI streams raw float64
// bodies up and reconstructions down over the service API.

import (
	"fmt"
	"io"
	"os"

	"numarck/internal/server"
)

// remoteClient builds the service client for one -addr/-tenant pair.
func remoteClient(addr, tenant string) *server.Client {
	return &server.Client{Base: addr, Tenant: tenant}
}

// remoteCompress pushes the current iteration's values to the daemon,
// which reconstructs the previous iteration from its chain and encodes
// the delta server-side with the tenant store's options (or commits a
// full when the chain is empty).
func remoteCompress(addr, tenant, variable string, iter int, curPath string) error {
	c := remoteClient(addr, tenant)
	cr, err := c.PushFile(variable, iter, curPath, nil)
	if err != nil {
		return err
	}
	if cr.Kind == "delta" {
		fmt.Printf("committed %s/%s@%d (delta): %d points in %d chunks of %d (%d workers), %d exact, file %d bytes\n",
			cr.Tenant, cr.Variable, cr.Iteration, cr.Points, cr.Chunks, cr.ChunkPoints, cr.Workers, cr.ExactValues, cr.FileBytes)
		return nil
	}
	fmt.Printf("committed %s/%s@%d (%s): %d points, file %d bytes\n",
		cr.Tenant, cr.Variable, cr.Iteration, cr.Kind, cr.Points, cr.FileBytes)
	return nil
}

// remoteDecompress fetches one iteration's reconstruction from the
// daemon into outPath; with salvage the daemon decodes around
// chunk-local corruption and the lost ranges are reported on stderr.
func remoteDecompress(addr, tenant, variable string, iter int, outPath string, salvage bool) error {
	c := remoteClient(addr, tenant)
	var points int
	var partial *server.PartialInfo
	err := writeOut(outPath, func(out io.Writer) (err error) {
		points, partial, err = c.Fetch(variable, iter, out, salvage)
		return err
	})
	if err != nil {
		return err
	}
	if partial != nil {
		fmt.Fprintf(os.Stderr, "numarck: %s@%d: %d point(s) lost to corruption, holding previous-iteration values\n",
			variable, iter, partial.LostPoints)
		for _, lr := range partial.Lost {
			fmt.Fprintf(os.Stderr, "numarck:   lost [%d,%d)\n", lr.Lo, lr.Hi)
		}
		fmt.Printf("salvaged %s/%s@%d: %d of %d points\n", tenant, variable, iter, points-partial.LostPoints, points)
		return nil
	}
	fmt.Printf("reconstructed %s/%s@%d: %d points\n", tenant, variable, iter, points)
	return nil
}
