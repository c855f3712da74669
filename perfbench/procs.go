package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// pollEvery is the fixed interval of every readiness and status poll.
// Keeping it constant (and well under the medians it quantizes) keeps
// poll timing out of the run-to-run spread.
const pollEvery = time.Millisecond

// proc is one process under test. Its CPU time and peak RSS come from
// the kernel's rusage at exit, so they cover the whole process lifetime.
type proc struct {
	name  string
	cmd   *exec.Cmd
	out   *os.File
	done  chan struct{}
	err   error // exit status, valid after done closes
	state *os.ProcessState
}

// startProc launches bin with args, sending its output to
// <logDir>/<name>.log. extraEnv is appended to the harness environment.
func startProc(name, bin string, args []string, extraEnv []string, logDir string) (*proc, error) {
	out, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = out, out
	cmd.Env = append(os.Environ(), extraEnv...)
	// If the harness itself is killed, take the process under test with
	// it rather than leave it running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		out.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, out: out, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		p.state = cmd.ProcessState
		out.Close()
		close(p.done)
	}()
	return p, nil
}

// wait blocks until the process exits or ctx ends; on ctx end the
// process is killed and reaped before wait returns.
func (p *proc) wait(ctx context.Context) error {
	select {
	case <-p.done:
		if p.err != nil {
			return fmt.Errorf("%s: %w (see %s)", p.name, p.err, p.out.Name())
		}
		return nil
	case <-ctx.Done():
		p.kill()
		return fmt.Errorf("%s: %w", p.name, ctx.Err())
	}
}

// stop asks the process to drain with SIGTERM, and kills it if it has
// not exited within grace. It returns once the process is reaped.
func (p *proc) stop(grace time.Duration) {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	t := time.NewTimer(grace)
	defer t.Stop()
	select {
	case <-p.done:
	case <-t.C:
		p.kill()
	}
}

func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// cpuSeconds is user+system CPU of the exited process.
func (p *proc) cpuSeconds() float64 {
	if p.state == nil {
		return 0
	}
	return (p.state.UserTime() + p.state.SystemTime()).Seconds()
}

// peakRSSMiB is the exited process's peak resident set size.
func (p *proc) peakRSSMiB() float64 {
	if p.state == nil {
		return 0
	}
	if ru, ok := p.state.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// waitAddr polls an -addr-file until the process has written its bound
// address, returning it as a base URL.
func waitAddr(ctx context.Context, p *proc, path string) (string, error) {
	for {
		if b, err := os.ReadFile(path); err == nil && len(strings.TrimSpace(string(b))) > 0 {
			return "http://" + strings.TrimSpace(string(b)), nil
		}
		select {
		case <-p.done:
			return "", fmt.Errorf("%s exited before serving (see %s)", p.name, p.out.Name())
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(pollEvery):
		}
	}
}

// waitOK polls url until it answers 200 and ok(body) holds.
func waitOK(ctx context.Context, hc *http.Client, url string, ok func(body []byte) bool) error {
	for {
		resp, err := hc.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", url, ctx.Err())
		case <-time.After(pollEvery):
		}
	}
}

// scrape fetches and parses a /metrics endpoint.
func scrape(hc *http.Client, base string) (promSnapshot, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(body))
}

// timeExec runs bin once to completion and returns its wall time.
func timeExec(ctx context.Context, bin string, args ...string) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	start := time.Now()
	out, err := cmd.CombinedOutput()
	d := time.Since(start)
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return d, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, out)
		}
		return d, err
	}
	return d, nil
}
