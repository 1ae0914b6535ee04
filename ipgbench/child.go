package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one running ipgd process.
type child struct {
	cmd   *exec.Cmd
	addr  string
	start time.Time

	// client keeps one idle keep-alive connection per loader connection.
	client *http.Client

	logMu sync.Mutex
	log   bytes.Buffer // the child's stderr, for error reports
	drain sync.WaitGroup
}

// startChild launches ipgd on an ephemeral loopback port and returns
// once it has printed the address it listens on.
func startChild(ctx context.Context, bin string, cacheMB, shards, conns int) (*child, error) {
	c := &child{client: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns},
	}}
	c.cmd = exec.Command(bin, "-addr", "127.0.0.1:0",
		"-cache-mb", strconv.Itoa(cacheMB), "-shards", strconv.Itoa(shards))
	// If the benchmark itself is killed, the kernel kills the child too.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c.start = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	c.drain.Add(1)
	go func() {
		defer c.drain.Done()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			c.logMu.Lock()
			c.log.WriteString(line + "\n")
			c.logMu.Unlock()
			if _, a, ok := strings.Cut(line, "listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		// Keep draining after a scanner error so the child never blocks
		// on a full stderr pipe.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		c.addr = strings.TrimSpace(a)
		return c, nil
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	c.stop()
	return nil, fmt.Errorf("ipgd did not report its address:\n%s", c.logText())
}

func (c *child) logText() string {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return c.log.String()
}

// requestTimeout bounds one request, connection included.
const requestTimeout = 30 * time.Second

// get sends one GET and reads the whole response.
func (c *child) get(path string) (int, []byte, error) {
	resp, err := c.client.Get("http://" + c.addr + path)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// waitHealthy polls /healthz until it answers 200.
func (c *child) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, err := c.get("/healthz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ipgd never became healthy (status %d, %v)\n%s", status, err, c.logText())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrape fetches and parses the child's Prometheus page.
func (c *child) scrape() (Prom, error) {
	status, body, err := c.get("/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", status)
	}
	return ParseProm(body)
}

// peakRSSMB reads the child's high-water resident set (VmHWM) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading the child's peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in the child's /proc status")
}

// stop asks the child to drain and exit, kills it if it lingers, and
// waits for the process and its stderr reader to finish.
func (c *child) stop() {
	c.client.CloseIdleConnections()
	// A failed signal means the process already exited; Wait reaps it.
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait() // exit status after SIGTERM carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
	c.drain.Wait()
}
