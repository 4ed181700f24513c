package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ, 100
// on Linux).
const clockTick = 10 * time.Millisecond

// daemon is one running cmd/decomposed, started with default flags on a
// free loopback port.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// copied is closed once the daemon's standard output is drained.
	copied chan struct{}
	log    *os.File
}

// startDaemon launches bin and waits until it answers /readyz. Its output
// goes to logPath.
func startDaemon(bin, logPath string) (*daemon, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = log
	// The daemon dies with this process, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, copied: make(chan struct{}), log: log}
	br := bufio.NewReader(out)
	// The first line names the bound address; the daemon prints it only
	// after it listens.
	line, err := br.ReadString('\n')
	go func() {
		defer close(d.copied)
		io.Copy(log, br)
	}()
	const prefix = "decomposed: listening on http://"
	if err != nil || !strings.HasPrefix(line, prefix) {
		d.kill()
		return nil, fmt.Errorf("daemon did not announce its address (got %q, %v); see %s", line, err, logPath)
	}
	d.addr = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	if err := d.waitReady(10 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	cl := &http.Client{Timeout: time.Second}
	stop := time.Now().Add(limit)
	for {
		resp, err := cl.Get("http://" + d.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(stop) {
			return fmt.Errorf("daemon at %s not ready after %v (last error %v)", d.addr, limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// that has not exited after 20 s is killed.
func (d *daemon) stop() error {
	if d == nil || d.cmd == nil {
		return nil
	}
	cmd := d.cmd
	d.cmd = nil
	defer d.log.Close()
	exited := make(chan error, 1)
	go func() {
		// Wait closes the output pipe, so the copy must finish first.
		<-d.copied
		exited <- cmd.Wait()
	}()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		cmd.Process.Kill()
		<-exited
		return err
	}
	select {
	case err := <-exited:
		return err
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		<-exited
		return fmt.Errorf("daemon did not drain within 20s; killed")
	}
}

// kill ends the daemon at once and reaps it.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.copied
	d.cmd.Wait()
	d.cmd = nil
	d.log.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpu returns the daemon's user+system CPU time so far, from
// /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat %q", b)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * clockTick, nil
}

// rss returns the daemon's resident set (VmRSS) in MiB.
func (d *daemon) rss() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmRSS line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", d.pid())
}

// sampleRSS reads the daemon's resident set every interval until stop is
// closed and returns the samples in MiB.
func (d *daemon) sampleRSS(interval time.Duration, stop <-chan struct{}) ([]float64, error) {
	t := time.NewTicker(interval)
	defer t.Stop()
	var out []float64
	for {
		v, err := d.rss()
		if err != nil {
			return out, err
		}
		out = append(out, v)
		select {
		case <-stop:
			return out, nil
		case <-t.C:
		}
	}
}

// scrape reads /metrics into a map from series (name plus labels, as
// printed) to value.
func (d *daemon) scrape() (map[string]float64, error) {
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// sumPrefix adds up every series whose name starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}
