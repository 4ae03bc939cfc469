package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"urllangid"
	"urllangid/internal/langid"
)

// The library workload runs in a child process of its own — this binary
// started with -lib-child — so its CPU time, peak RSS and start-up are
// the library's alone, not the benchmark's.

// libReport is what the child sends back when it has run.
type libReport struct {
	Phases  map[string][]libPhase `json:"phases"`
	RSSMB   float64               `json:"rss_mb"`
	Reloads []float64             `json:"reloads_ms"`
	Failed  int64                 `json:"failed"`
	Errors  []string              `json:"errors"`
}

// libPhase is a phaseResult in transit.
type libPhase struct {
	Lat       []float64 `json:"lat_ms"`
	Reqs      int64     `json:"reqs"`
	Failed    int64     `json:"failed"`
	URLs      int64     `json:"urls"`
	Correct   int64     `json:"correct"`
	Sampled   int64     `json:"sampled"`
	ElapsedNs int64     `json:"elapsed_ns"`
	CPUNs     int64     `json:"cpu_ns"`
	Err       string    `json:"err,omitempty"`
}

func toLib(p phaseResult) libPhase {
	lp := libPhase{Lat: p.lat, Reqs: p.reqs, Failed: p.failed, URLs: p.tally.urls, Correct: p.tally.correct,
		Sampled: p.tally.sampled, ElapsedNs: int64(p.elapsed), CPUNs: int64(p.cpu)}
	if p.err != nil {
		lp.Err = p.err.Error()
	}
	return lp
}

func (p libPhase) result() phaseResult {
	pr := phaseResult{lat: p.Lat, reqs: p.Reqs, failed: p.Failed,
		tally:   tally{urls: p.URLs, correct: p.Correct, sampled: p.Sampled},
		elapsed: time.Duration(p.ElapsedNs), cpu: time.Duration(p.CPUNs)}
	if p.Err != "" {
		pr.err = errors.New(p.Err)
	}
	return pr
}

// runLibrary measures library_batch: setupRuns cold starts of the
// child, the last of which then runs the phases.
func runLibrary(cfg *config, c *corpus) (*e2e, error) {
	if err := copyFile(cfg.path(slotFile), c.fastPath); err != nil {
		return nil, err
	}
	if err := writePool(cfg.path(poolFile), c.pool); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &e2e{}
	for i := 0; i < setupRuns; i++ {
		last := i == setupRuns-1
		rep, d, err := libChildRun(self, cfg, last)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, d.Seconds())
		if !last {
			continue
		}
		res.phases = make(map[string][]phaseResult)
		for name, ps := range rep.Phases {
			for _, p := range ps {
				res.phases[name] = append(res.phases[name], p.result())
			}
		}
		res.rssMB = rep.RSSMB
		res.reloads = rep.Reloads
		res.failed = rep.Failed
		for _, e := range rep.Errors {
			res.errs = append(res.errs, errors.New(e))
		}
	}
	return res, nil
}

// libChildRun starts one child, times it to its first served batch, and
// either lets it run the workload (run) or tells it to exit.
func libChildRun(self string, cfg *config, run bool) (*libReport, time.Duration, error) {
	cmd := exec.Command(self, "-lib-child", "-work", cfg.work, "-workload", cfg.workload,
		"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds))
	cmd.SysProcAttr = dieWithParent()
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	stderr := &tailBuffer{max: 4096}
	cmd.Stderr = stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	out := bufio.NewReader(stdout)
	ready, err := out.ReadString('\n')
	d := time.Since(t0)
	if err != nil || strings.TrimSpace(ready) != "ready" {
		stdin.Close()
		cmd.Wait()
		return nil, 0, fmt.Errorf("library child did not start: %q %v: %s", ready, err, stderr)
	}
	cmdWord := "exit\n"
	if run {
		cmdWord = "run\n"
	}
	if _, err := io.WriteString(stdin, cmdWord); err != nil {
		stdin.Close()
		cmd.Wait()
		return nil, 0, err
	}
	stdin.Close()
	var rep *libReport
	if run {
		rep = new(libReport)
		if err := json.NewDecoder(out).Decode(rep); err != nil {
			cmd.Wait()
			return nil, 0, fmt.Errorf("reading library child report: %v: %s", err, stderr)
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("library child: %v: %s", err, stderr)
	}
	return rep, d, nil
}

// libChild is the child's side: start serving, report ready, then run
// the phases if told to. Its files are the parent's, in cfg.work.
func libChild(cfg *config) error {
	fast, slow := cfg.path(slotFile), cfg.path(slowFile)
	fastOrig, fastAlt := cfg.path(fastFile), cfg.path(fastUncalFile)
	reg := urllangid.NewRegistry(urllangid.RegistryOptions{CacheCapacity: 1 << 20})
	defer reg.Close()
	if _, err := reg.Load("fast", fast); err != nil {
		return err
	}
	if _, err := reg.Load("slow", slow); err != nil {
		return err
	}
	if _, err := reg.InstallCascade("cascade", "fast", "slow", urllangid.CascadeConfig{}); err != nil {
		return err
	}
	if _, err := reg.ClassifyBatch("cascade", []string{probeURL}); err != nil {
		return err
	}
	fmt.Println("ready")
	cmd, _ := bufio.NewReader(os.Stdin).ReadString('\n')
	if strings.TrimSpace(cmd) != "run" {
		return nil
	}

	pool, err := readPool(cfg.path(poolFile))
	if err != nil {
		return err
	}
	// Reference answers for the whole pool, computed once through the
	// single-URL path of a second registry over the same files.
	ref, err := referenceCascade(&corpus{fastPath: fastOrig, slowPath: slow})
	if err != nil {
		return err
	}
	refScores, err := poolReference(ref, pool)
	ref.Close()
	if err != nil {
		return err
	}

	res := &e2e{}
	newCaller := func(p phase) func(w int) caller {
		src := &batchSource{seq: newBatchSeq(len(pool), cfg.seed, phaseStream(p.name))}
		return func(int) caller {
			return func(begin func() time.Time) (time.Time, tally, error) {
				idx, pos := src.next()
				urls, labels, sampled := batchCheck(pool, idx, pos)
				begin()
				results, err := reg.ClassifyBatch("cascade", urls)
				end := time.Now()
				if err != nil {
					return end, tally{}, err
				}
				if len(results) != len(urls) {
					return end, tally{}, fmt.Errorf("%d results for %d URLs", len(results), len(urls))
				}
				var t tally
				for j, r := range results {
					if err := t.judge(urls[j], r.Scores(), labels[j], sampled[j], func() [langid.NumLanguages]float64 { return refScores[idx[j]] }); err != nil {
						return end, t, err
					}
				}
				return end, t, nil
			}
		}
	}
	if err := measure(cfg, res, func() (time.Duration, error) { return selfCPU(), nil }, newCaller); err != nil {
		return err
	}
	rep := libReport{Phases: make(map[string][]libPhase)}
	for name, ps := range res.phases {
		for _, p := range ps {
			rep.Phases[name] = append(rep.Phases[name], toLib(p))
		}
	}
	if rep.RSSMB, err = procHWM(os.Getpid()); err != nil {
		return err
	}
	rl := &reloader{slot: fast, files: [2]string{fastOrig, fastAlt}, version: 1,
		reload: func() (int64, bool, error) {
			info, changed, err := reg.Reload("fast")
			return info.Version, changed, err
		}}
	rl.probe(res)
	rep.Reloads, rep.Failed = res.reloads, res.failed
	for _, e := range res.errs {
		rep.Errors = append(rep.Errors, e.Error())
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func writePool(path string, pool []entry) error {
	var b strings.Builder
	for _, e := range pool {
		b.WriteString(e.url)
		b.WriteByte('\t')
		b.WriteString(e.lang.Code())
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func readPool(path string) ([]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var pool []entry
	for _, ln := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		u, code, ok := strings.Cut(ln, "\t")
		if !ok || len(code) != 2 {
			return nil, fmt.Errorf("bad pool line %q", ln)
		}
		l, known := codeLang(code[0], code[1])
		if !known {
			return nil, fmt.Errorf("bad pool language %q", code)
		}
		pool = append(pool, entry{url: u, quoted: quote(u), lang: l})
	}
	return pool, nil
}
