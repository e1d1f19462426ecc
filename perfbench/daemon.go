package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A daemon is one topkcleand process started by the harness.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  string
	done chan struct{}
}

// procs tracks every process the harness started so that every exit path,
// the signal handler's included, stops them and waits for them.
var (
	procsMu sync.Mutex
	procs   []*daemon
)

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches bin with args plus -addr on a fresh loopback port.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	full := append([]string{"-addr", addr}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the harness dies without cleaning up, the daemon dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	procsMu.Lock()
	procs = append(procs, d)
	procsMu.Unlock()
	return d, nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// kill sends SIGKILL and waits for the process to end.
func (d *daemon) kill() {
	if !d.exited() {
		_ = d.cmd.Process.Signal(syscall.SIGKILL)
	}
	<-d.done
}

// stop asks for a graceful shutdown, escalating to SIGKILL after a grace
// period, and waits for the process to end.
func (d *daemon) stop() {
	if d.exited() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.kill()
	}
}

// stopAll stops every daemon: gracefully, or by SIGKILL when the harness
// is itself being stopped.
func stopAll(graceful bool) {
	procsMu.Lock()
	ds := append([]*daemon(nil), procs...)
	procsMu.Unlock()
	for _, d := range ds {
		if graceful {
			d.stop()
		} else {
			d.kill()
		}
	}
}

// procStatusKB reads a "<key>: <n> kB" line of /proc/<pid>/status.
func (d *daemon) procStatusKB(key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("%s not found in /proc/%d/status", key, d.cmd.Process.Pid)
}

// peakRSSMB is the process's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	kb, err := d.procStatusKB("VmHWM")
	return kb / 1024, err
}

// cpuTime is the process's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const ticks = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticks, nil
}

// runTime is the time the process's threads have run on a CPU so far,
// from /proc/<pid>/task/*/schedstat. Like cpuTime it leaves out the time
// the host gave to other guests (steal); unlike cpuTime's clock ticks it
// resolves nanoseconds, which a launch of a fraction of a second needs.
func (d *daemon) runTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread has ended
		}
		if err != nil {
			return 0, err
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			return 0, errors.New("empty /proc schedstat")
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed /proc schedstat: %w", err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// ioWriteBytes is the bytes the process has caused to be written to
// storage (write_bytes of /proc/<pid>/io).
func (d *daemon) ioWriteBytes() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, errors.New("write_bytes not found in /proc io")
}

// control is the harness's own client for set-up, scraping and recovery,
// separate from the load generator's connections.
var control = &http.Client{
	Timeout: 30 * time.Second,
	Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: time.Second}).DialContext,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	},
}

func get(url string) (int, []byte, error) {
	resp, err := control.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// waitBody polls url until it answers 200 with exactly want, returning
// how long that took from start.
func waitBody(d *daemon, url string, want []byte, start time.Time, limit time.Duration) (time.Duration, error) {
	var last string
	for time.Since(start) < limit {
		if d.exited() {
			return 0, fmt.Errorf("daemon exited (see %s)", d.log)
		}
		status, body, err := get(url)
		switch {
		case err != nil:
			last = err.Error()
		case status == http.StatusOK && bytes.Equal(body, want):
			return time.Since(start), nil
		default:
			last = fmt.Sprintf("status %d, %d bytes", status, len(body))
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("no correct answer from %s within %s (last: %s)", url, limit, last)
}

// stats is the subset of the daemon's /stats the scrapers read.
type stats struct {
	Version       uint64 `json:"version"`
	WALRecords    int    `json:"wal_records_since_checkpoint"`
	CheckpointVer uint64 `json:"checkpoint_version"`
	Coalesced     int64  `json:"coalesced_queries"`
	Replication   *struct {
		BytesBehind int64  `json:"bytes_behind"`
		Resyncs     uint64 `json:"resyncs"`
	} `json:"replication"`
	Shards []struct {
		Scanned uint64 `json:"scanned"`
	} `json:"shards"`
}

func scrapeStats(d *daemon) (stats, error) {
	var st stats
	status, body, err := get(d.url("/stats"))
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// dirBytes is the total size of the files under dir. The daemon may
// rotate or delete a file during the walk; such a file counts as gone.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
