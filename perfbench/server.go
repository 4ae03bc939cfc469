package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// probeURL is the single URL a starting process must classify before it
// counts as serving.
const probeURL = "http://www.wetter.de/bericht"

// server is one urllangid-serve subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *tailBuffer
	exited chan struct{}
}

// startServer launches the server binary with args plus a free
// loopback address, and returns once it answers a classify request,
// with the time from process start to that answer.
func startServer(bin string, args []string, probePath string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{base: "http://" + addr, stderr: &tailBuffer{max: 4096}, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	s.cmd.SysProcAttr = dieWithParent()
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = s.stderr
	probe := []byte(`{"urls":["` + probeURL + `"]}`)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.cmd.Wait(); close(s.exited) }()
	for deadline := t0.Add(60 * time.Second); ; {
		resp, err := client.Post(s.base+probePath, "application/json", bytes.NewReader(probe))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("server exited during start-up: %s", s.stderr)
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("server not serving after 60s: %s", s.stderr)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// dieWithParent makes a subprocess get SIGKILL if this process dies
// first, so a benchmark killed mid-run leaves no server behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// stop asks the server to drain and exit, and waits until it has.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// reload POSTs the named slot's reload endpoint and returns the version
// the server reports and whether it says the model changed.
func reload(client *http.Client, base, name string) (version int64, changed bool, err error) {
	resp, err := client.Post(base+"/v1/models/"+name+"/reload", "application/json", nil)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	var body reloadBody
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return 0, false, fmt.Errorf("reload %s: %s: %s", name, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, false, fmt.Errorf("reload %s: %w", name, err)
	}
	return body.Model.Version, body.Changed, nil
}

// reloadBody is the part of a reload response the benchmark checks.
type reloadBody struct {
	Changed bool `json:"changed"`
	Model   struct {
		Version int64 `json:"version"`
	} `json:"model"`
}

// procCPU returns a process's user plus system CPU time from
// /proc/<pid>/stat (clock ticks of 1/100 s, Linux's USER_HZ).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields restart after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("unparsable /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	// After ')' come state (field 3), …, utime (14), stime (15).
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns a process's peak resident set size in MB (VmHWM).
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tailBuffer keeps the last max bytes written to it, for error reports
// about a subprocess.
type tailBuffer struct {
	max int
	mu  sync.Mutex
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = t.b[len(t.b)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.b))
}
