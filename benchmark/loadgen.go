package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"
)

// window is the width of the slices a pass is cut into. An end-to-end rate or
// latency is the median over a pass's windows of the window's own figure: the
// host's speed moves by a quarter from one second to the next, and the mean
// of a pass follows every slow stretch where the median window does not.
const window = time.Second

// loopResult is what one pass of a load loop saw. Times are nanoseconds.
type loopResult struct {
	lat     []int64   // per call; open loop: from the due instant
	cut     []int     // one caller's part: lat[cut[w-1]:cut[w]] completed in window w
	windows [][]int64 // merged: the latencies of every whole window, all callers'
	starts  []int64   // per call, since the pass began; kept only when recording spans
	lag     []int64   // open loop: due instant to send instant
	late    int       // open loop: calls sent more than one period after they were due
	ops     int64     // estimates asked for
	failed  int64     // estimates that errored, were refused or came back wrong
	elapsed time.Duration
}

func (r *loopResult) merge(o *loopResult) {
	r.lat = append(r.lat, o.lat...)
	r.starts = append(r.starts, o.starts...)
	r.lag = append(r.lag, o.lag...)
	r.late += o.late
	r.ops += o.ops
	r.failed += o.failed
}

// call runs request i of one caller and reports the estimates it asked for
// and how many of them failed.
type call func(caller, i int) (ops, failed int)

// closeTo closes the windows that ended by end.
func (r *loopResult) closeTo(end time.Duration) {
	for time.Duration(len(r.cut)+1)*window <= end {
		r.cut = append(r.cut, len(r.lat))
	}
}

// done appends a call that completed at end with latency lat.
func (r *loopResult) done(end, lat time.Duration) {
	r.closeTo(end)
	r.lat = append(r.lat, int64(lat))
}

// perWindow is the median over the pass's whole windows of f(window's
// latencies), and the number of windows. A pass shorter than two windows is
// one window.
func (r *loopResult) perWindow(f func(lat []int64, width time.Duration) float64) (float64, int) {
	if len(r.windows) < 2 {
		return f(r.lat, r.elapsed), 1
	}
	vs := make([]float64, len(r.windows))
	for i, lat := range r.windows {
		vs[i] = f(lat, window)
	}
	return quantile(vs, 0.5), len(vs)
}

// fanOut runs one goroutine per load unit, each filling its own part, and
// merges the parts when all have returned. A window is whole once every
// caller has completed a call after it.
func fanOut(units int, unit func(c int, start time.Time, p *loopResult)) loopResult {
	parts := make([]loopResult, units)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			unit(c, start, &parts[c])
		}()
	}
	wg.Wait()
	res := loopResult{elapsed: time.Since(start)}
	whole := len(parts[0].cut)
	for i := range parts {
		res.merge(&parts[i])
		whole = min(whole, len(parts[i].cut))
	}
	for w := 0; w < whole; w++ {
		var lat []int64
		for i := range parts {
			lo := 0
			if w > 0 {
				lo = parts[i].cut[w-1]
			}
			lat = append(lat, parts[i].lat[lo:parts[i].cut[w]]...)
		}
		res.windows = append(res.windows, lat)
	}
	return res
}

// closedLoop runs callers goroutines for d, each sending its next request
// when the previous one returns.
func closedLoop(callers int, d time.Duration, rec bool, do call) loopResult {
	return fanOut(callers, func(c int, start time.Time, p *loopResult) {
		for i := 0; ; i++ {
			t0 := time.Since(start)
			if t0 >= d {
				return
			}
			ops, failed := do(c, i)
			end := time.Since(start)
			p.done(end, end-t0)
			if rec {
				p.starts = append(p.starts, int64(t0))
			}
			p.ops += int64(ops)
			p.failed += int64(failed)
		}
	})
}

// openLoop sends rate requests per second for d over conns connections, each
// on its own evenly spaced schedule whatever the replies do. A request is
// timed from the instant it was due, so a stall is charged to every request
// it delays.
func openLoop(conns int, rate float64, d time.Duration, rec bool, do call) loopResult {
	period := time.Duration(float64(conns) / rate * float64(time.Second))
	return fanOut(conns, func(c int, start time.Time, p *loopResult) {
		offset := period * time.Duration(c) / time.Duration(conns)
		for i := 0; ; i++ {
			due := offset + time.Duration(i)*period
			if due >= d {
				p.closeTo(d)
				return
			}
			waitUntil(start, due)
			lag := time.Since(start) - due
			ops, failed := do(c, i)
			end := time.Since(start)
			p.done(end, end-due)
			p.lag = append(p.lag, int64(lag))
			if lag > period {
				p.late++
			}
			if rec {
				p.starts = append(p.starts, int64(due))
			}
			p.ops += int64(ops)
			p.failed += int64(failed)
		}
	})
}

// waitUntil returns at start+due. The Go runtime rounds a sleeping
// goroutine's timer up to whole milliseconds when nothing else runs, which
// would make every open-loop request late by half a millisecond on average;
// so the wait is a kernel nanosleep to shortly before the instant, then a
// spin. The spin holds a processor for at most spinFor per request.
func waitUntil(start time.Time, due time.Duration) {
	const spinFor = 150 * time.Microsecond
	if rest := due - time.Since(start); rest > spinFor+50*time.Microsecond {
		ts := syscall.NsecToTimespec(int64(rest - spinFor))
		syscall.Nanosleep(&ts, nil) // an early return only lengthens the spin
	}
	for time.Since(start) < due {
	}
}

// quantileUS is the nearest-rank q-quantile of nanosecond samples, in
// microseconds.
func quantileUS(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[nearestRank(len(s), q)]) / 1e3
}

func nearestRank(n int, q float64) int {
	return min(n-1, max(0, int(math.Ceil(q*float64(n)))-1))
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), q)]
}

// httpConn is one keep-alive connection: a client whose transport may hold
// a single connection per host.
type httpConn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newHTTPConn() *httpConn {
	return &httpConn{client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (h *httpConn) close() { h.client.CloseIdleConnections() }

// post sends one JSON body and returns the status and the response body,
// which is valid until the next post.
func (h *httpConn) post(url string, body []byte, header ...string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	h.buf.Reset()
	if _, err := io.Copy(&h.buf, resp.Body); err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, h.buf.Bytes(), nil
}

// estimateReply is the part of a /v1/estimate response the checks read.
type estimateReply struct {
	Card  *float64  `json:"card"`
	Cards []float64 `json:"cards"`
}

// estimate posts one /v1/estimate body and returns the cards it answered.
func (h *httpConn) estimate(base string, body []byte, header ...string) ([]float64, http.Header, error) {
	status, hdr, raw, err := h.post(base+"/v1/estimate", body, header...)
	if err != nil {
		return nil, nil, err
	}
	if status != http.StatusOK {
		return nil, hdr, fmt.Errorf("estimate: status %d: %s", status, raw)
	}
	var rep estimateReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, hdr, err
	}
	if rep.Card != nil {
		return []float64{*rep.Card}, hdr, nil
	}
	return rep.Cards, hdr, nil
}

// wrong counts the estimates that are not finite or lie outside [0, rows],
// plus any that are missing.
func wrong(cards []float64, want int, rows float64) int {
	bad := max(0, want-len(cards))
	for _, c := range cards {
		if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 || c > rows {
			bad++
		}
	}
	return bad
}
