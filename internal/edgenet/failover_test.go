package edgenet

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"time"
)

// flakyWorker speaks the protocol but drops the connection after serving
// `serve` tasks — a crash-stop failure mid-run.
func flakyWorker(t *testing.T, id, serve int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if err := WriteFrame(conn, &Envelope{Type: MsgHello, WorkerID: id}); err != nil {
					return
				}
				for done := 0; done < serve; {
					env, err := ReadFrame(conn)
					if err != nil {
						return
					}
					if env.Type != MsgAssign {
						continue
					}
					if err := WriteFrame(conn, &Envelope{
						Type: MsgDone, WorkerID: id, TaskID: env.TaskID,
					}); err != nil {
						return
					}
					done++
				}
				// Crash: drop the connection without a goodbye.
			}()
		}
	}()
	return l.Addr().String()
}

func TestRunFaultTolerantSurvivesCrash(t *testing.T) {
	// Worker 0 crashes after 1 task; workers 1 and 2 are healthy.
	crashAddr := flakyWorker(t, 99, 1)
	_, healthy := startWorkers(t, 2)
	addrs := append([]string{crashAddr}, healthy...)
	p, res := testPlan(9, 3)
	ctrl := NewController()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	report, err := ctrl.Run(ctx, addrs, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Completions) != 9 {
		t.Fatalf("completions = %d, want 9 (crashed worker's tasks re-run)", len(report.Completions))
	}
	if total := p.TotalImportance(); math.Abs(report.Covered-total) > 1e-9 {
		t.Fatalf("covered %v, want the whole %v", report.Covered, total)
	}
	// Exactly one task ran on the flaky worker before the crash.
	flakyDone := 0
	for _, comp := range report.Completions {
		if comp.WorkerID == 99 {
			flakyDone++
		}
	}
	if flakyDone != 1 {
		t.Fatalf("flaky worker completed %d tasks, want 1", flakyDone)
	}
}

func TestRunFaultTolerantDeadOnArrival(t *testing.T) {
	// One address never answers; the plan still completes on the others.
	_, healthy := startWorkers(t, 2)
	dead := "127.0.0.1:1"
	addrs := append([]string{dead}, healthy...)
	p, res := testPlan(6, 3)
	ctrl := NewController()
	ctrl.DialTimeout = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	report, err := ctrl.Run(ctx, addrs, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Completions) != 6 {
		t.Fatalf("completions = %d, want 6", len(report.Completions))
	}
	for _, comp := range report.Completions {
		if comp.WorkerID == 0 {
			t.Fatal("task completed on the dead worker")
		}
	}
}

func TestRunFaultTolerantAllDown(t *testing.T) {
	p, res := testPlan(4, 2)
	ctrl := NewController()
	ctrl.DialTimeout = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := ctrl.Run(ctx, []string{"127.0.0.1:1", "127.0.0.1:1"}, p, res, 0.8)
	if !errors.Is(err, ErrAllWorkersDown) {
		t.Fatalf("all-down err = %v", err)
	}
}

func TestRunFaultTolerantValidation(t *testing.T) {
	ctrl := NewController()
	ctx := context.Background()
	p, res := testPlan(4, 2)
	if _, err := ctrl.Run(ctx, nil, p, res, 0.8); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("no workers err = %v", err)
	}
	_, addrs := startWorkers(t, 2)
	bad := *res
	bad.Allocation = bad.Allocation[:1]
	if _, err := ctrl.Run(ctx, addrs, p, &bad, 0.8); !errors.Is(err, ErrPlanMismatch) {
		t.Fatalf("short plan err = %v", err)
	}
}
