// Fixture for the waitgroup analyzer.
package fixture

import "sync"

func addInsideGoroutine() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		go func() {
			wg.Add(1) // want `wg.Add inside the spawned goroutine`
			defer wg.Done()
		}()
	}
	wg.Wait()
}

func addBeforeGoroutine() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// ownWaitGroup declares the WaitGroup inside the goroutine; its Add is
// local coordination, not a race with an outer Wait.
func ownWaitGroup() {
	go func() {
		var inner sync.WaitGroup
		inner.Add(1)
		go func() { inner.Done() }()
		inner.Wait()
	}()
}

func waitBeforeAdd() {
	var wg sync.WaitGroup
	wg.Wait() // want `wg.Wait before wg.Add in the same block`
	wg.Add(1)
	wg.Done()
}

func waitAfterAddLoop() {
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go wg.Done()
	}
	wg.Wait()
}
