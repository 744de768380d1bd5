package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"time"

	"micgraph/internal/serve"
)

// clientEnv marks the load-generator process. serve-mix sends its jobs
// from a child process running this same binary, so the generator's timer
// wake-ups compete with the server only for CPUs, through the OS
// scheduler, and not for the server's Go runtime processors: in-process,
// a due job waited for a busy processor and the generator ran late.
const clientEnv = "SCALEBENCH_CLIENT"

// clientPlan is one window's schedule, sent to the child on stdin: the
// open-loop jobs with their due times, and the batch stream, which runs
// beside them in a closed loop, one job in flight, from the window's start
// until the last open-loop job has ended, cycling through Batch. The batch
// stream yields to the open-loop jobs: it sends its next job only when no
// open-loop job is in flight.
type clientPlan struct {
	Base  string          `json:"base"`
	Conns int             `json:"conns"`
	Due   []time.Duration `json:"due"`
	Specs []serve.JobSpec `json:"specs"`
	Batch []serve.JobSpec `json:"batch"`
}

// clientResult is what the child saw of one job, in schedule order.
type clientResult struct {
	Index     int           `json:"index"` // batch jobs: the job's place in the plan's Batch
	LagMS     float64       `json:"lag_ms"`
	LatencyMS float64       `json:"latency_ms"`
	DueNS     int64         `json:"due_ns"` // Unix wall-clock times
	EndNS     int64         `json:"end_ns"`
	Backlog   int64         `json:"backlog"` // jobs in flight when this one was sent
	Body      []byte        `json:"body"`
	View      serve.JobView `json:"view"`
	Err       string        `json:"err,omitempty"`
}

// clientOutput is the child's report: when the window started (Unix
// wall-clock time), each open-loop job's result, in schedule order, and
// each batch job's result, in the order sent.
type clientOutput struct {
	StartNS int64          `json:"start_ns"`
	Jobs    []clientResult `json:"jobs"`
	Batch   []clientResult `json:"batch"`
}

// clientMain is the child process: it reads a plan, drives it open loop
// and writes the results as JSON.
func clientMain(in io.Reader, out io.Writer) int {
	var plan clientPlan
	if err := json.NewDecoder(in).Decode(&plan); err != nil {
		fmt.Fprintln(os.Stderr, "scalebench client:", err)
		return 1
	}
	var cp http.Protocols
	cp.SetUnencryptedHTTP2(true)
	tr := &http.Transport{Protocols: &cp, MaxConnsPerHost: plan.Conns}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}

	res := make([]clientResult, len(plan.Specs))
	var wg sync.WaitGroup
	open := newInFlight()
	start := time.Now()
	output := clientOutput{StartNS: start.UnixNano(), Jobs: res}
	stop := make(chan struct{})
	batch := make(chan []clientResult)
	go func() {
		var sent []clientResult
		defer func() { batch <- sent }()
		for i := 0; len(plan.Batch) > 0; i++ {
			open.waitIdle()
			select {
			case <-stop:
				return
			default:
			}
			r := clientResult{Index: i % len(plan.Batch)}
			due := time.Now()
			r.DueNS = due.UnixNano()
			if err := runJob(c, plan.Base, plan.Batch[r.Index], due, &r); err != nil {
				r.Err = err.Error()
			}
			sent = append(sent, r)
		}
	}()
	for i := range plan.Specs {
		due := start.Add(plan.Due[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r := &res[i]
		r.LagMS = float64(time.Since(due).Nanoseconds()) / 1e6
		r.DueNS = due.UnixNano()
		r.Backlog = open.add()
		wg.Add(1)
		go func(spec serve.JobSpec) {
			defer wg.Done()
			defer open.done()
			if err := runJob(c, plan.Base, spec, due, r); err != nil {
				r.Err = err.Error()
			}
		}(plan.Specs[i])
	}
	wg.Wait()
	close(stop)
	output.Batch = <-batch
	if err := json.NewEncoder(out).Encode(output); err != nil {
		fmt.Fprintln(os.Stderr, "scalebench client:", err)
		return 1
	}
	return 0
}

// inFlight counts the open-loop jobs in flight. The batch stream waits for
// it to reach zero before each job, so an open-loop job shares the server
// with at most the end of one batch job. When the batch stream did not
// wait, every open-loop job ran beside a batch job on the 2 CPUs, and the
// reference p50 was 4–20% higher in alternating runs and moved more with
// the host's load (README, "Why the batch stream yields").
type inFlight struct {
	mu   sync.Mutex
	n    int64
	idle sync.Cond
}

func newInFlight() *inFlight {
	f := &inFlight{}
	f.idle.L = &f.mu
	return f
}

// add counts one more job in flight and returns the new count.
func (f *inFlight) add() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	return f.n
}

func (f *inFlight) done() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n--; f.n == 0 {
		f.idle.Broadcast()
	}
}

// waitIdle returns when no job is in flight.
func (f *inFlight) waitIdle() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.n > 0 {
		f.idle.Wait()
	}
}

// runJob submits one job and follows its result stream to the end; the
// stream's end is the job's completion, so no status polling is involved.
// The job's status view (with its server-side spans) is fetched
// afterwards, outside the latency.
func runJob(c *http.Client, base string, spec serve.JobSpec, due time.Time, r *clientResult) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	body, status, err := call(ctx, c, http.MethodPost, base+"/jobs", body)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit refused: %d: %s", status, bytes.TrimSpace(body))
	}
	var view serve.JobView
	if err == nil {
		err = json.Unmarshal(body, &view)
	}
	if err != nil {
		return err
	}
	if r.Body, err = get(ctx, c, base+"/jobs/"+view.ID+"/result"); err != nil {
		return err
	}
	end := time.Now()
	r.EndNS = end.UnixNano()
	r.LatencyMS = float64(end.Sub(due).Nanoseconds()) / 1e6
	if body, err = get(ctx, c, base+"/jobs/"+view.ID); err == nil {
		err = json.Unmarshal(body, &r.View)
	}
	if err == nil && r.View.Status != serve.StatusSucceeded {
		err = fmt.Errorf("job %s %s: %s", view.ID, r.View.Status, r.View.Error)
	}
	return err
}

func call(ctx context.Context, c *http.Client, method, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	body, status, err := call(ctx, c, http.MethodGet, url, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: %d: %s", url, status, bytes.TrimSpace(body))
	}
	return body, err
}

// drive runs one window through a child load-generator process and waits
// for it to exit. Each open-loop job is sent when due, whatever is still in
// flight, and timed from its due time; each batch job is sent when the one
// before it has ended, and timed from then.
func (ms *mixServer) drive(w *window) error {
	plan := clientPlan{Base: ms.base, Conns: ms.conns}
	for _, rec := range w.jobs {
		plan.Due = append(plan.Due, rec.due)
		plan.Specs = append(plan.Specs, rec.spec)
	}
	for _, rec := range w.batch {
		plan.Batch = append(plan.Batch, rec.spec)
	}
	in, err := json.Marshal(plan)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), clientEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// The heap is sampled only while the window runs, from a collected
	// start, so the benchmark's own decoding and checking between windows
	// neither counts nor raises the collector's heap goal inside a window.
	runtime.GC()
	heap := startHeapPeak()
	err = cmd.Run()
	ms.heapMB = max(ms.heapMB, heap.stopMB())
	if err != nil {
		return fmt.Errorf("load generator: %w", err)
	}
	var res clientOutput
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return fmt.Errorf("load generator output: %w", err)
	}
	if len(res.Jobs) != len(w.jobs) {
		return fmt.Errorf("load generator returned %d results for %d jobs", len(res.Jobs), len(w.jobs))
	}
	w.startAt = time.Unix(0, res.StartNS)
	for i, r := range res.Jobs {
		w.jobs[i].fill(r)
		w.backlog = append(w.backlog, float64(r.Backlog))
	}
	planned := w.batch
	w.batch = nil
	for _, r := range res.Batch {
		if r.Index < 0 || r.Index >= len(planned) {
			return fmt.Errorf("load generator returned batch job %d of %d", r.Index, len(planned))
		}
		rec := &jobRecord{plannedJob: planned[r.Index].plannedJob}
		rec.fill(r)
		w.batch = append(w.batch, rec)
	}
	return nil
}

// fill records what the load generator saw of the job.
func (rec *jobRecord) fill(r clientResult) {
	rec.lagMS, rec.latencyMS, rec.body, rec.view = r.LagMS, r.LatencyMS, r.Body, r.View
	rec.dueAt, rec.endAt = time.Unix(0, r.DueNS), time.Unix(0, r.EndNS)
	if r.Err != "" {
		rec.err = fmt.Errorf("%s", r.Err)
	}
}
