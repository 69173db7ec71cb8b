package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is the benchmark's own HTTP/1.1 client: one persistent connection,
// one request in flight, bodies framed by Content-Length. It exists so that
// a later change to the program's client code cannot speed up the ruler.
type conn struct {
	addr    string
	timeout time.Duration
	c       net.Conn
	br      *bufio.Reader
	frame   []byte
	body    []byte
}

func dial(addr string, timeout time.Duration) (*conn, error) {
	c := &conn{addr: addr, timeout: timeout}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *conn) redial() error {
	c.close()
	nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	c.c = nc
	c.br = bufio.NewReaderSize(nc, 16<<10)
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and returns the status and body; the body aliases the
// connection's buffer until the next call. Any error leaves the connection
// unusable: the caller counts the failure and redials.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	f := c.frame[:0]
	f = append(f, method...)
	f = append(f, ' ')
	f = append(f, path...)
	f = append(f, " HTTP/1.1\r\nHost: "...)
	f = append(f, c.addr...)
	if body != nil {
		f = append(f, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		f = strconv.AppendInt(f, int64(len(body)), 10)
	}
	f = append(f, "\r\n\r\n"...)
	f = append(f, body...)
	c.frame = f
	if err := c.c.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(f); err != nil {
		return 0, nil, fmt.Errorf("write: %w", err)
	}
	return c.readResponse()
}

func (c *conn) readResponse() (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("status line: %w", err)
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		const cl = "content-length:"
		if len(line) > len(cl) && bytes.EqualFold(line[:len(cl)], []byte(cl)) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(cl):])))
			if err != nil {
				return 0, nil, fmt.Errorf("bad content-length %q", line)
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length (status %d)", status)
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, fmt.Errorf("body: %w", err)
	}
	return status, c.body, nil
}
