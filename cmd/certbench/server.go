package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// buildServer compiles cmd/certserver into the benchmark's build
// directory. Build time is never measured.
func buildServer(root string, stderr io.Writer) (string, error) {
	bin := filepath.Join(root, ".bench_build", "certserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/certserver")
	cmd.Dir = root
	cmd.Stdout = stderr
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build certserver: %w", err)
	}
	return bin, nil
}

// serverProc is one running certserver with default flags (bar the
// listen address).
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	stderr bytes.Buffer
}

// startServer boots the binary on a free loopback port and waits until
// /healthz answers.
func startServer(bin string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	s := &serverProc{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr)
	// Stdout, where the default flags log one line per request, stays nil:
	// the null device. Stderr is kept for boot failures.
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start certserver: %w", err)
	}
	go func() {
		_ = s.cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("certserver exited during boot: %s", s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("certserver did not answer /healthz within 20s")
		}
	}
}

// stop reads the server's peak RSS, then shuts it down gracefully (SIGINT
// drains in-flight requests), killing it if the drain takes too long. It
// returns once the process has exited.
func (s *serverProc) stop() float64 {
	peak, _ := peakRSSMB(s.cmd.Process.Pid)
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	return peak
}

// newClient returns an HTTP client that holds at most one connection, so
// the benchmark's connection count is exactly its client count.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// post sends one request and reads the whole response.
func post(ctx context.Context, c *http.Client, url, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads /metrics through the validating exposition parser.
func scrape(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return obs.ParseExposition(resp.Body)
}

// cacheCount reads one cell of the engine's cache-request counter family.
func cacheCount(m map[string]float64, cache, result string) int64 {
	return int64(m[obs.SeriesKey("engine_cache_requests_total", obs.L("cache", cache), obs.L("result", result))])
}
