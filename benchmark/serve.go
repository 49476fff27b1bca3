package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"graphkeys"
)

// HTTP client hygiene, where it is implemented:
//   - one shared http.Transport for the whole run, with
//     MaxIdleConnsPerHost >= the number of connections, so every
//     request after the first on a connection reuses it (the default
//     transport keeps 2 idle connections per host and churns the rest);
//   - one goroutine per connection, requests strictly one after
//     another on it, so connections = goroutines = nproc at most;
//   - the body is read to EOF before the clock stops, and parsed and
//     checked after;
//   - no compression, no redirects, no SSE subscriber: /subscribe is
//     not exercised by any workload.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns + 2,
			MaxIdleConnsPerHost: conns + 2,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns status, body and the time from
// send to the last body byte.
func (c *client) do(method, path string, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, d, err
}

// httpOp is one request of a stream, with its check.
type httpOp struct {
	method string
	path   string
	body   []byte
	kind   int
	check  func(body []byte) (seq uint64, err error)
}

const (
	kindSame = iota
	kindEntities
	kindApply
	numKinds
)

func samePath(op sameOp) string {
	return "/same?a=" + url.QueryEscape(op.a) + "&b=" + url.QueryEscape(op.b)
}

func entitiesPath(op entOp) string {
	return "/entities?p=" + url.QueryEscape(op.p) + "&v=" + url.QueryEscape(op.v)
}

func applyBody(f flipOp) []byte {
	op := "remove_value"
	if f.add {
		op = "add_value"
	}
	b, _ := json.Marshal(map[string]any{"deltas": []any{map[string]any{"ops": []any{
		map[string]string{"op": op, "s": f.s, "p": f.p, "v": f.v},
	}}}})
	return b
}

// readOps is the read mix: 80 % /same, 20 % /entities. Once *written
// is set, the /same ops on chain entities go unchecked, because a
// writer has been changing their answers.
func readOps(in *input, written *bool) []httpOp {
	ops := make([]httpOp, 0, len(in.sames))
	ne := 0
	for i, so := range in.sames {
		if i%5 == 4 {
			eo := in.ents[ne%len(in.ents)]
			ne++
			ops = append(ops, httpOp{method: "GET", path: entitiesPath(eo), kind: kindEntities, check: func(body []byte) (uint64, error) {
				var r struct {
					Entities []string `json:"entities"`
					Seq      uint64   `json:"seq"`
				}
				if err := json.Unmarshal(body, &r); err != nil {
					return 0, err
				}
				slices.Sort(r.Entities)
				if !slices.Equal(r.Entities, eo.want) {
					return 0, gatef("/entities p=%s v=%s returned %v, want %v", eo.p, eo.v, r.Entities, eo.want)
				}
				return r.Seq, nil
			}})
			continue
		}
		ops = append(ops, httpOp{method: "GET", path: samePath(so), kind: kindSame, check: func(body []byte) (uint64, error) {
			var r struct {
				Same bool   `json:"same"`
				Seq  uint64 `json:"seq"`
			}
			if err := json.Unmarshal(body, &r); err != nil {
				return 0, err
			}
			if !(so.chain && *written) && r.Same != so.want {
				return 0, gatef("/same a=%s b=%s answered %v, want %v", so.a, so.b, r.Same, so.want)
			}
			return r.Seq, nil
		}})
	}
	return ops
}

func writeOps(flips []flipOp) []httpOp {
	ops := make([]httpOp, len(flips))
	for i, f := range flips {
		ops[i] = httpOp{method: "POST", path: "/apply?wait=1", body: applyBody(f), kind: kindApply, check: func(body []byte) (uint64, error) {
			var r struct {
				Seq uint64 `json:"seq"`
			}
			err := json.Unmarshal(body, &r)
			return r.Seq, err
		}}
	}
	return ops
}

// connResult is what one connection's goroutine saw. Counts cover the
// warm-up too; latencies only the measured window.
type connResult struct {
	lats      [numKinds][]float64 // microseconds
	genLate   []float64           // open loop: microseconds the generator itself was late
	attempted int64
	failed    int64
	acked     int64 // kindApply requests answered 202
	err       error // a gate violation ends the connection
}

// conn is one keep-alive connection: one goroutine, one request at a
// time.
type conn struct {
	c       *client
	window  time.Duration
	buf     bytes.Buffer
	lastSeq uint64
	res     connResult
}

// request runs op, checks the answer and that seq never goes backwards
// on this connection, and (when record is set) keeps the latency,
// measured from t0 or, if t0 is the zero time, from the send. It
// returns when the response ended.
func (cn *conn) request(op httpOp, t0 time.Time, record bool) time.Time {
	res := &cn.res
	res.attempted++
	status, d, err := cn.c.do(op.method, op.path, op.body, &cn.buf)
	end := time.Now()
	if !t0.IsZero() {
		d = end.Sub(t0)
	}
	if err != nil || (status != http.StatusOK && status != http.StatusAccepted) {
		// Failed or refused: it misses any latency limit, so it enters
		// the sample at the window length.
		res.failed++
		d = cn.window
	} else {
		seq, cerr := op.check(cn.buf.Bytes())
		switch {
		case cerr != nil:
			res.err = cerr
		case seq < cn.lastSeq:
			res.err = gatef("seq went backwards on one connection: %d after %d", seq, cn.lastSeq)
		}
		if res.err != nil {
			return end
		}
		cn.lastSeq = seq
		if op.kind == kindApply {
			res.acked++
		}
	}
	if record {
		res.lats[op.kind] = append(res.lats[op.kind], us(d))
	}
	return end
}

// closedLoop runs conns connections, each sending its next request as
// soon as the previous one completed, for warm+window; latencies of
// the warm-up are discarded. Connection k takes ops off+k,
// off+k+conns, ...
func (c *client) closedLoop(ops []httpOp, off, conns int, warm, window time.Duration) []*connResult {
	results := make([]*connResult, conns)
	var wg sync.WaitGroup
	measureFrom := time.Now().Add(warm)
	stop := measureFrom.Add(window)
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cn := &conn{c: c, window: window}
			results[k] = &cn.res
			for i := off + k; cn.res.err == nil; i += conns {
				now := time.Now()
				if !now.Before(stop) {
					break
				}
				cn.request(ops[i%len(ops)], time.Time{}, !now.Before(measureFrom))
			}
		}(k)
	}
	wg.Wait()
	return results
}

// openSchedule is one connection of an open loop: its ops go out at a
// fixed interval, however slowly earlier ones were answered.
type openSchedule struct {
	ops      []httpOp
	off      int // index of the first op to send
	interval time.Duration
}

// openLoop runs every schedule on its own connection for warm+window.
// Timing rule: a request is timed from its due time when the previous
// request on the connection finished after that (the system made it
// late), and from its actual send time when only the sleep overshot;
// the overshoot goes to genLate instead.
func (c *client) openLoop(scheds []openSchedule, warm, window time.Duration) []*connResult {
	results := make([]*connResult, len(scheds))
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	measureFrom := start.Add(warm)
	stop := measureFrom.Add(window)
	for k, s := range scheds {
		wg.Add(1)
		go func(k int, s openSchedule) {
			defer wg.Done()
			cn := &conn{c: c, window: window}
			results[k] = &cn.res
			prevEnd := start
			for i := 0; cn.res.err == nil; i++ {
				due := start.Add(time.Duration(i) * s.interval)
				if !due.Before(stop) {
					break
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				record := !due.Before(measureFrom)
				t0 := due
				if !prevEnd.After(due) {
					t0 = time.Time{}
					if record {
						cn.res.genLate = append(cn.res.genLate, us(time.Since(due)))
					}
				}
				prevEnd = cn.request(s.ops[(s.off+i)%len(s.ops)], t0, record)
			}
		}(k, s)
	}
	wg.Wait()
	return results
}

// merged folds the connections of one loop together.
type merged struct {
	lats      [numKinds][]float64
	genLate   []float64
	attempted int64
	failed    int64
	acked     int64
}

func mergeResults(rs []*connResult) (*merged, error) {
	m := &merged{}
	for _, r := range rs {
		if r.err != nil {
			return nil, r.err
		}
		for k := range r.lats {
			m.lats[k] = append(m.lats[k], r.lats[k]...)
		}
		m.genLate = append(m.genLate, r.genLate...)
		m.attempted += r.attempted
		m.failed += r.failed
		m.acked += r.acked
	}
	return m, nil
}

// child is one emserve process.
type child struct {
	cmd    *exec.Cmd
	base   string
	walDir string
	stderr bytes.Buffer
	exited chan struct{} // closed when the process has been waited for
}

// serveInst is the serve stage set up: input generated and written to
// files, an emserve child started on them and answering.
type serveInst struct {
	in *input
	ch *child
}

// setupServe generates the input, writes it under dir and starts
// `emserve -graph -keys -wal -fsync=true -addr 127.0.0.1:PORT`; it
// returns when GET /seq first answers 200.
func setupServe(spec inputSpec, seed int64, dir, bin string) (*serveInst, error) {
	in, err := buildInput(spec, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	graphPath, keysPath := filepath.Join(dir, "input.graph"), filepath.Join(dir, "input.keys")
	if err := os.WriteFile(graphPath, in.graphText, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(keysPath, []byte(in.keysText), 0o644); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	ch := &child{base: "http://" + addr, walDir: filepath.Join(dir, "wal")}
	ch.cmd = exec.Command(bin, "-graph", graphPath, "-keys", keysPath, "-wal", ch.walDir, "-fsync=true", "-addr", addr)
	ch.cmd.Stderr = &ch.stderr
	// The child dies with the benchmark, whatever kills the benchmark.
	ch.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := ch.cmd.Start(); err != nil {
		return nil, err
	}
	ch.exited = make(chan struct{})
	go func() {
		ch.cmd.Wait()
		close(ch.exited)
	}()
	probe := newClient(ch.base, 1)
	defer probe.close()
	var buf bytes.Buffer
	deadline := time.Now().Add(60 * time.Second)
	for {
		if status, _, err := probe.do("GET", "/seq", nil, &buf); err == nil && status == http.StatusOK {
			break
		}
		select {
		case <-ch.exited:
			return nil, fmt.Errorf("emserve exited during start-up: %s", ch.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			ch.kill()
			return nil, fmt.Errorf("emserve did not answer /seq within 60s: %s", ch.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return &serveInst{in: in, ch: ch}, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// terminate sends SIGTERM (emserve drains, snapshots and closes) and
// waits for the process to end, killing it after 30 s.
func (ch *child) terminate() error {
	if err := ch.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-ch.exited:
	case <-time.After(30 * time.Second):
		ch.kill()
		return fmt.Errorf("emserve ignored SIGTERM for 30s: %s", ch.stderr.String())
	}
	if !ch.cmd.ProcessState.Success() {
		return fmt.Errorf("emserve exited with %v: %s", ch.cmd.ProcessState, ch.stderr.String())
	}
	return nil
}

func (ch *child) kill() {
	ch.cmd.Process.Kill()
	<-ch.exited
}

// stop ends the child if it is still running; safe after terminate.
func (s *serveInst) stop() {
	select {
	case <-s.ch.exited:
	default:
		s.ch.kill()
	}
}

// procStatus reads the child's peak RSS (VmHWM, MB) and CPU seconds
// (utime+stime) from /proc.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) / 100, nil
}

// Open-loop rates. 500 reads/s leave the server idle between requests,
// so every read pays the wake-up a sparse client pays, and none rides
// on the previous one's warmth: one mode of latency, not two. 50
// acknowledged writes/s keep the writer busy about a fifth of the time
// without a growing backlog; the mix is fixed so that a faster read
// path cannot starve the writer and show up as a write regression.
const (
	mixedReadsPerS  = 500
	mixedWritesPerS = 50
)

// serveStage drives one emserve child. Each round runs an open loop of
// reads on readConns connections, first alone and then beside one more
// connection of acknowledged writes: the two differ by the writer only.
// A traced run puts a closed loop of reads on closedConns connections
// before them, for the read path's throughput and CPU cost; the
// end-to-end run does not, because nproc clients beside an nproc-thread
// server measure how the sandbox's scheduler shares out the cores.
type serveStage struct {
	spec         inputSpec
	seed         int64
	newDir       func() string
	bin          string
	readConns    int
	closedConns  int
	warm         time.Duration // discarded start of every slice
	closedWindow time.Duration // per round; 0: no closed loop
	readWindow   time.Duration // per round
	mixedWindow  time.Duration // per round

	s       *serveInst
	c       *client
	reads   []httpOp
	writes  []httpOp
	wpos    int  // writes sent so far
	written bool // set before the first write: chain answers are unknown from then on

	closedSlices []*merged
	readSlices   []*merged
	mixedSlices  []*merged
	cpuSecs      float64 // child CPU over the closed slices
	vars         graphkeys.Metrics
	setupSecs    []float64 // every child's start to first answer, the throwaway ones too
	setupRSSMB   []float64 // and its peak RSS then
}

func (s *serveStage) setup() (err error) {
	if s.s, err = s.start(); err != nil {
		return err
	}
	s.c = newClient(s.s.ch.base, max(s.closedConns, s.readConns+1))
	s.reads = readOps(s.s.in, &s.written)
	s.writes = writeOps(s.s.in.flipStream(0, 1, len(s.s.in.flips)*2))
	return nil
}

// start brings one emserve child up on the workload's input and notes
// how long that took and the child's peak RSS once it answers.
func (s *serveStage) start() (*serveInst, error) {
	settle()
	t0 := time.Now()
	inst, err := setupServe(s.spec, s.seed, s.newDir(), s.bin)
	if err != nil {
		return nil, err
	}
	s.setupSecs = append(s.setupSecs, time.Since(t0).Seconds())
	mb, err := procPeakRSSMB(inst.ch.cmd.Process.Pid)
	if err != nil {
		inst.stop()
		return nil, err
	}
	s.setupRSSMB = append(s.setupRSSMB, mb)
	return inst, nil
}

// throwaway starts and stops one more child, so that setup_s and
// peak_rss_mb sample more than one moment of the run.
func (s *serveStage) throwaway() error {
	inst, err := s.start()
	if err != nil {
		return err
	}
	return inst.ch.terminate()
}

func (s *serveStage) measure(round int) error {
	if s.closedWindow > 0 {
		pid := s.s.ch.cmd.Process.Pid
		cpu0, err := procCPUSeconds(pid)
		if err != nil {
			return err
		}
		closed, err := mergeResults(s.c.closedLoop(s.reads, round*4099, s.closedConns, s.warm, s.closedWindow))
		if err != nil {
			return err
		}
		cpu1, err := procCPUSeconds(pid)
		if err != nil {
			return err
		}
		s.cpuSecs += cpu1 - cpu0
		s.closedSlices = append(s.closedSlices, closed)
	}

	scheds := make([]openSchedule, 0, s.readConns+1)
	for k := 0; k < s.readConns; k++ {
		scheds = append(scheds, openSchedule{ops: s.reads, off: round*4099 + k*1021, interval: time.Second * time.Duration(s.readConns) / mixedReadsPerS})
	}
	read, err := mergeResults(s.c.openLoop(scheds, s.warm, s.readWindow))
	if err != nil {
		return err
	}
	s.readSlices = append(s.readSlices, read)

	s.written = true
	for k := range scheds {
		scheds[k].off += 2053
	}
	scheds = append(scheds, openSchedule{ops: s.writes, off: s.wpos, interval: time.Second / mixedWritesPerS})
	results := s.c.openLoop(scheds, s.warm, s.mixedWindow)
	s.wpos += int(results[s.readConns].attempted)
	mixed, err := mergeResults(results)
	if err != nil {
		return err
	}
	s.mixedSlices = append(s.mixedSlices, mixed)
	return nil
}

// finish scrapes /vars, sends SIGTERM and
// verifies the directory emserve left: the recovered result equals a
// from-scratch Match on the recovered graph, at seq = 1 (the seed) +
// acknowledged writes.
func (s *serveStage) finish() error {
	defer s.c.close()
	var buf bytes.Buffer
	status, _, err := s.c.do("GET", "/seq", nil, &buf)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /seq after the run: status %d, %v", status, err)
	}
	var seqResp struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(buf.Bytes(), &seqResp); err != nil {
		return err
	}
	if status, _, err = s.c.do("GET", "/vars", nil, &buf); err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /vars: status %d, %v", status, err)
	}
	if err := json.Unmarshal(buf.Bytes(), &s.vars); err != nil {
		return err
	}
	if err := s.s.ch.terminate(); err != nil {
		return err
	}

	ks, err := graphkeys.ParseKeys(s.s.in.keysText)
	if err != nil {
		return err
	}
	m, err := graphkeys.OpenMatcher(s.s.ch.walDir, ks, durableOpts)
	if err != nil {
		return gatef("reopening emserve's directory: %v", err)
	}
	defer m.Close()
	fresh, err := graphkeys.Match(m.Graph(), ks, graphkeys.Options{})
	if err != nil {
		return err
	}
	if got, want := matchPairs(m.Result()), matchPairs(fresh); !slices.Equal(got, want) {
		return gatef("emserve's directory recovers to %d pairs, Match on its graph finds %d", len(got), len(want))
	}
	// Every acknowledged flip is effective, so it is logged and moves
	// the seq by one; the seed delta is seq 1.
	var acked, failed uint64
	for _, sl := range s.mixedSlices {
		acked += uint64(sl.acked)
		failed += uint64(sl.failed)
	}
	if m.Seq() != seqResp.Seq || m.Seq() < 1+acked || (failed == 0 && m.Seq() != 1+acked) {
		return gatef("emserve acknowledged %d writes (%d failed) and answered seq %d; its directory recovers to seq %d", acked, failed, seqResp.Seq, m.Seq())
	}
	return nil
}

// counts sums attempted and failed requests over all slices.
func (s *serveStage) counts() (attempted, failed int64) {
	for _, sl := range slices.Concat(s.closedSlices, s.readSlices, s.mixedSlices) {
		attempted += sl.attempted
		failed += sl.failed
	}
	return attempted, failed
}
