package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// A load point: closed loop with callers concurrent callers when rate
// is 0, otherwise open loop at rate requests per second over at most
// callers connections.
type phase struct {
	name    string
	callers int
	rate    float64
	dur     time.Duration
}

// caller performs one request. It prepares the request, calls begin
// right before sending — begin returns the instant latency is measured
// from — reads the whole response, and only then checks it, so checking
// never counts as latency.
type caller func(begin func() time.Time) (end time.Time, t tally, err error)

// phaseResult is what one load point measured.
type phaseResult struct {
	lat     []float64 // ms per successful request
	lag     []float64 // ms the open-loop generator woke after a due time
	reqs    int64
	failed  int64
	tally   tally
	elapsed time.Duration
	cpu     time.Duration // the target process's CPU over the phase
	err     error         // first failure, for the report
}

// runPhase drives newCaller's callers through p and collects latencies.
// In an open loop request i is due at start+i/rate whatever happened to
// earlier requests. A request whose caller was still busy at its due
// time counts its latency from that due time, so a stall shows in every
// request it delays. A caller that was free sleeps until the due time
// and counts from when it woke: the timer's own lateness (up to a
// millisecond on Linux, where short sleeps wait in whole milliseconds)
// is the generator's, not the target's, and is recorded as lag instead.
func runPhase(p phase, newCaller func(w int) caller) phaseResult {
	var (
		mu   sync.Mutex
		res  phaseResult
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(p.dur)
	var interval time.Duration
	if p.rate > 0 {
		interval = time.Duration(float64(time.Second) / p.rate)
	}
	for w := 0; w < p.callers; w++ {
		call := newCaller(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, lag []float64
			var local phaseResult
			for {
				var begin func() time.Time
				if interval == 0 {
					if !time.Now().Before(end) {
						break
					}
					begin = time.Now
				} else {
					due := start.Add(time.Duration(next.Add(1)-1) * interval)
					if !due.Before(end) {
						break
					}
					begin = func() time.Time {
						if d := time.Until(due); d > 0 {
							time.Sleep(d)
							woke := time.Now()
							lag = append(lag, ms(woke.Sub(due)))
							return woke
						}
						return due
					}
				}
				var t0 time.Time
				stamp := func() time.Time { t0 = begin(); return t0 }
				done, t, err := call(stamp)
				local.reqs++
				if err != nil {
					local.failed++
					if local.err == nil {
						local.err = err
					}
					continue
				}
				lat = append(lat, ms(done.Sub(t0)))
				local.tally.add(t)
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.lag = append(res.lag, lag...)
			res.reqs += local.reqs
			res.failed += local.failed
			res.tally.add(local.tally)
			if res.err == nil {
				res.err = local.err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
