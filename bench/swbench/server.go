package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/oracle"
)

// server is one swserver process under test, reached over exactly two
// keep-alive connections: one for ingest, one for queries and scrapes.
type server struct {
	cmd     *exec.Cmd
	exited  chan struct{} // closed once cmd.Wait has returned
	base    string
	dataDir string
	ingest  *http.Client
	query   *http.Client
	reqs    atomic.Int64 // requests attempted
	fails   atomic.Int64 // non-2xx replies and transport errors
}

func oneConnClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the server binds it; a collision shows up as a server
// that exits before it is ready.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer execs the server binary with the workload's flags plus
// extra, and returns once /readyz answers 200.
func startServer(ctx context.Context, env *env, wl workload, extra ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, ingest: oneConnClient(), query: oneConnClient(), exited: make(chan struct{})}
	args := append([]string{"-addr", addr}, wl.serverArgs()...)
	if wl.durable {
		if s.dataDir, err = os.MkdirTemp(env.work, "data-"); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", s.dataDir)
	}
	s.cmd = exec.Command(env.serverBin, append(args, extra...)...)
	s.cmd.Stderr = os.Stderr
	if err := s.cmd.Start(); err != nil {
		s.removeData()
		return nil, fmt.Errorf("start swserver: %w", err)
	}
	go func() {
		_ = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.ingest.Get(s.base + "/readyz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.removeData()
			return nil, fmt.Errorf("swserver exited before it was ready (%v)", s.cmd.ProcessState)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("swserver not ready after 30s")
		}
	}
}

// stop interrupts the server, waits for it to exit (killing it after 20 s)
// and removes its data directory.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.ingest.CloseIdleConnections()
	s.query.CloseIdleConnections()
	s.removeData()
}

func (s *server) removeData() {
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir)
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// encodeEdges renders one POST body in the workload's wire format.
func encodeEdges(edges []oracle.Edge, ndjson bool) []byte {
	var b bytes.Buffer
	if ndjson {
		for _, e := range edges {
			fmt.Fprintf(&b, "[%d,%d,%d]\n", e.U, e.V, e.W)
		}
		return b.Bytes()
	}
	b.WriteString(`{"edges":[`)
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"u":%d,"v":%d,"w":%d}`, e.U, e.V, e.W)
	}
	b.WriteString("]}")
	return b.Bytes()
}

// post sends one synchronous-ack ingest request: the 202 arrives once the
// batch holding the body's last edge is applied to every monitor (and, on a
// durable window, appended and fsynced).
func (s *server) post(body []byte, ndjson bool) error {
	url := s.base + windowPath + "/edges?sync=1"
	ctype := "application/json"
	if ndjson {
		url += "&format=ndjson"
		ctype = "application/x-ndjson"
	}
	s.reqs.Add(1)
	resp, err := s.ingest.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		s.fails.Add(1)
		return err
	}
	drain(resp)
	if resp.StatusCode != http.StatusAccepted {
		s.fails.Add(1)
		return fmt.Errorf("POST edges: status %d", resp.StatusCode)
	}
	return nil
}

// get issues one GET on the query connection and returns the body of a
// 200 reply.
func (s *server) get(path string) ([]byte, error) {
	s.reqs.Add(1)
	resp, err := s.query.Get(s.base + path)
	if err != nil {
		s.fails.Add(1)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		s.fails.Add(1)
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		s.fails.Add(1)
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// getJSON issues one GET and decodes the 200 reply into v.
func (s *server) getJSON(path string, v any) error {
	body, err := s.get(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}
