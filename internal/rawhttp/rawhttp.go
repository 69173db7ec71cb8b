// Package rawhttp is a minimal, allocation-thrifty HTTP/1.1 client built
// around preassembled request frames and persistent connections. The
// cluster tier's peer links run on it: the router's proxy hop and health
// prober and gossip exchanges. One
// Conn per pooled link, one buffered write per request, one reused buffer
// per response.
package rawhttp

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"slices"
	"strconv"
	"time"
)

// Conn is a single persistent HTTP/1.1 connection speaking just enough of
// the protocol for the cluster's peer links: it writes a preassembled
// request frame (headers + JSON body, one syscall) and reads one response
// back into a reused buffer. The stock net/http client costs tens of
// microseconds of CPU per request — header maps, context plumbing,
// pooled-connection bookkeeping — which on a small host is several times a
// shard's entire warm path, so the router's hop would cost more than the
// answer it relays. A Conn has one owner at a time (the router pools them
// per shard), so there is no sharing and no locking.
type Conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte // reused response-body buffer
	line []byte // reused header-line buffer

	// Timeout, when positive, bounds each Do (write + full response read)
	// with a connection deadline, so a hung peer fails the call instead of
	// wedging the caller. Zero (the default) never times out.
	Timeout time.Duration
}

// Dial opens a persistent connection to addr ("host:port").
func Dial(addr string) (*Conn, error) {
	conn := &Conn{addr: addr}
	if err := conn.redial(); err != nil {
		return nil, err
	}
	return conn, nil
}

func (c *Conn) redial() error {
	nc, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
	if err != nil {
		return err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if c.Timeout > 0 {
		_ = nc.SetDeadline(time.Now().Add(c.Timeout))
	}
	c.c = nc
	if c.br == nil {
		c.br = bufio.NewReaderSize(nc, 16<<10)
	} else {
		c.br.Reset(nc)
	}
	return nil
}

// Close tears the connection down.
func (c *Conn) Close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// BuildFrame preassembles one complete POST request (headers + body) so the
// hot loop can send it with a single buffered write.
func BuildFrame(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: dcta\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	b.Write(body)
	return b.Bytes()
}

// AppendFrame is BuildFrame into a caller-reused buffer (for the router's
// proxy hop, whose body changes per request).
func AppendFrame(dst []byte, path string, body []byte) []byte {
	dst = dst[:0]
	dst = append(dst, "POST "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: dcta\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// BuildGetFrame preassembles one complete GET request (health probes and
// stats).
func BuildGetFrame(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: dcta\r\n\r\n")
}

// Do sends one preassembled frame and returns the HTTP status code and the
// response body. The returned slice aliases the Conn's internal buffer and
// is valid until the next Do. A torn connection is redialed once.
func (c *Conn) Do(frame []byte) (int, []byte, error) {
	if c.c == nil {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	if c.Timeout > 0 {
		_ = c.c.SetDeadline(time.Now().Add(c.Timeout))
	}
	if _, err := c.c.Write(frame); err != nil {
		// The server may have idled the connection out between requests;
		// one fresh dial retries the (idempotent-at-this-layer) request.
		c.Close()
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
		if _, err := c.c.Write(frame); err != nil {
			return 0, nil, err
		}
	}
	return c.readResponse()
}

func (c *Conn) readResponse() (int, []byte, error) {
	line, err := c.readLine()
	if err != nil {
		return 0, nil, fmt.Errorf("status line: %w", err)
	}
	// "HTTP/1.1 200 OK" — the code is the second space-separated field.
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 || len(line) < sp+4 {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	code, err := strconv.Atoi(string(line[sp+1 : sp+4]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status %q", line)
	}

	contentLen := -1
	chunked := false
	closeAfter := false
	for {
		line, err := c.readLine()
		if err != nil {
			return 0, nil, fmt.Errorf("header: %w", err)
		}
		if len(line) == 0 {
			break
		}
		if v, ok := headerValue(line, "content-length"); ok {
			n, err := strconv.Atoi(string(v))
			if err != nil || n < 0 {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
			contentLen = n
		} else if v, ok := headerValue(line, "transfer-encoding"); ok {
			chunked = bytes.EqualFold(v, []byte("chunked"))
		} else if v, ok := headerValue(line, "connection"); ok {
			closeAfter = bytes.EqualFold(v, []byte("close"))
		}
	}

	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			sizeLine, err := c.readLine()
			if err != nil {
				return 0, nil, fmt.Errorf("chunk size: %w", err)
			}
			if semi := bytes.IndexByte(sizeLine, ';'); semi >= 0 {
				sizeLine = sizeLine[:semi]
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(sizeLine)), 16, strconv.IntSize)
			if err != nil || n < 0 {
				return 0, nil, fmt.Errorf("bad chunk size %q", sizeLine)
			}
			if n == 0 {
				// Trailer section: discard lines through the final blank.
				for {
					tl, err := c.readLine()
					if err != nil {
						return 0, nil, fmt.Errorf("trailer: %w", err)
					}
					if len(tl) == 0 {
						break
					}
				}
				break
			}
			if err := c.readFull(int(n)); err != nil {
				return 0, nil, fmt.Errorf("chunk body: %w", err)
			}
			crlf, err := c.readLine()
			if err != nil || len(crlf) != 0 {
				return 0, nil, fmt.Errorf("chunk terminator: %v %q", err, crlf)
			}
		}
	case contentLen >= 0:
		if err := c.readFull(contentLen); err != nil {
			return 0, nil, fmt.Errorf("body: %w", err)
		}
	default:
		return 0, nil, fmt.Errorf("response without Content-Length or chunked encoding")
	}
	if closeAfter {
		c.Close()
	}
	return code, c.body, nil
}

// readFull appends exactly n bytes from the connection onto c.body. A
// length is the peer's claim, so the buffer grows only as bytes arrive: a
// peer that announces more than it sends costs what it sent and ends in the
// connection's deadline or EOF error. When cap(c.body) already fits, the
// reads land in place.
func (c *Conn) readFull(n int) error {
	have := len(c.body)
	if n < 0 || n > math.MaxInt-have {
		return fmt.Errorf("length %d overflows a %d-byte body", n, have)
	}
	for end := have + n; len(c.body) < end; {
		if len(c.body) == cap(c.body) {
			c.body = slices.Grow(c.body, max(1, min(end-len(c.body), c.br.Buffered())))
		}
		m, err := c.br.Read(c.body[len(c.body):min(end, cap(c.body))])
		c.body = c.body[:len(c.body)+m]
		if err != nil {
			return err
		}
	}
	return nil
}

// readLine reads one CRLF-terminated line, stripping the terminator. The
// returned slice aliases c.line.
func (c *Conn) readLine() ([]byte, error) {
	c.line = c.line[:0]
	for {
		frag, err := c.br.ReadSlice('\n')
		c.line = append(c.line, frag...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
	n := len(c.line)
	if n > 0 && c.line[n-1] == '\n' {
		n--
		if n > 0 && c.line[n-1] == '\r' {
			n--
		}
	}
	return c.line[:n], nil
}

// headerValue matches a "Name: value" line against a lowercase header name
// and returns the trimmed value.
func headerValue(line []byte, name string) ([]byte, bool) {
	colon := bytes.IndexByte(line, ':')
	if colon != len(name) {
		return nil, false
	}
	for i := 0; i < colon; i++ {
		ch := line[i]
		if 'A' <= ch && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		if ch != name[i] {
			return nil, false
		}
	}
	return bytes.TrimSpace(line[colon+1:]), true
}
