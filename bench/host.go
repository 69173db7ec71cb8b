package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// hostInfo is the one JSON line the SUT host prints once it is serving.
type hostInfo struct {
	PID            int      `json:"pid"`
	ScenarioBuildS float64  `json:"scenario_build_s"`
	Addr           string   `json:"addr"`
	Shards         []string `json:"shards"`
	Workers        []string `json:"workers,omitempty"`
	Controller     string   `json:"controller,omitempty"`
	// Ctl is the host's own control listener (not product code): a no-op
	// handler for the client's floor RTT and the host's memory statistics.
	Ctl string `json:"ctl"`
	// Owners[c] is the index in Shards of cluster c's owner on the ring.
	Owners []int `json:"owners"`
}

// info describes a booted stack of this process.
func (st *stack) info(w *world) hostInfo {
	info := hostInfo{
		PID: os.Getpid(), ScenarioBuildS: w.BuildS,
		Addr: st.Addr, Shards: st.Shards, Workers: st.Workers, Controller: st.Controller,
	}
	for c := range w.Stored {
		info.Owners = append(info.Owners, st.owner(c))
	}
	return info
}

// memStats is what /memstats reports from inside the host.
type memStats struct {
	NumGC      uint32 `json:"num_gc"`
	TotalAlloc uint64 `json:"total_alloc"`
}

// hostMain is the child process: build the world, boot the workload's
// topology, print the addresses, serve until stdin closes.
func hostMain(name string, smoke bool) error {
	spec, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if smoke {
		spec.World = smallWorld
	}
	w, err := buildWorld(spec.World)
	if err != nil {
		return err
	}
	st, err := bootStack(w, spec)
	if err != nil {
		return err
	}
	defer st.close()

	mux := http.NewServeMux()
	mux.HandleFunc("/null", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Length", "2")
		_, _ = rw.Write([]byte("{}"))
	})
	mux.HandleFunc("/memstats", func(rw http.ResponseWriter, _ *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		_ = json.NewEncoder(rw).Encode(memStats{NumGC: ms.NumGC, TotalAlloc: ms.TotalAlloc})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctl := &http.Server{Handler: mux}
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		_ = ctl.Serve(ln) // returns once Shutdown runs
	}()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = ctl.Shutdown(ctx)
		<-ctlDone
	}()

	info := st.info(w)
	info.Ctl = ln.Addr().String()
	line, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	// The parent closes our stdin to stop us; if it dies, the pipe closes too.
	_, _ = io.Copy(io.Discard, os.Stdin)
	return nil
}

// host is the parent's handle on a running SUT child.
type host struct {
	hostInfo
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

const (
	hostBootTimeout = 150 * time.Second
	hostStopTimeout = 15 * time.Second
)

// startHost spawns this binary as the SUT host for a workload and waits for
// its address line.
func startHost(spec workloadSpec, smoke bool) (*host, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-host", spec.Name}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start host: %w", err)
	}
	h := &host{cmd: cmd, stdin: stdin}
	type result struct {
		info hostInfo
		err  error
	}
	got := make(chan result, 1)
	go func() {
		var r result
		line, err := bufio.NewReader(stdout).ReadBytes('\n')
		if err != nil {
			r.err = fmt.Errorf("host exited before serving: %w", err)
		} else if err := json.Unmarshal(line, &r.info); err != nil {
			r.err = fmt.Errorf("host address line: %w", err)
		}
		got <- r
	}()
	select {
	case r := <-got:
		if r.err != nil {
			h.stop()
			return nil, r.err
		}
		h.hostInfo = r.info
		return h, nil
	case <-time.After(hostBootTimeout):
		h.stop()
		return nil, fmt.Errorf("host did not serve within %s", hostBootTimeout)
	}
}

// stop ends the child and waits for it; a child that ignores the closed
// stdin is killed.
func (h *host) stop() {
	h.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = h.cmd.Wait() // exit status is irrelevant once the run is over
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(hostStopTimeout):
		_ = h.cmd.Process.Kill()
		<-done
	}
}
