package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one `bwsched serve` child process and the single keep-alive
// connection the closed-loop client drives it over.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan error
}

// startDaemon spawns the daemon on a free loopback port and returns once
// it has written its bound address, i.e. once it listens.
func startDaemon(bin, workDir string) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed before it can stop the daemon itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			break
		}
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("daemon exited before listening: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("daemon did not listen within 30s")
		}
	}
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return d, nil
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// do sends one request and reads the whole response body.
func (d *daemon) do(r request) (status int, body []byte, err error) {
	resp, err := d.client.Post(d.base+routePaths[r.Route], "application/json", bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// clkTck is USER_HZ, the unit of utime and stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clkTck = 100

// cpuSeconds reads the daemon's user+system CPU time.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return float64(ut+st) / clkTck, nil
}

// resetPeakRSS restarts the kernel's VmHWM accounting at the current RSS,
// so the next peakRSSMB covers only what follows.
func (d *daemon) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0)
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
