// Package microhttp is a minimal HTTP/1.1 codec that runs over any
// io.ReadWriter — real TCP sockets, simulated streams
// (hipcloud/internal/simtcp) and TLS channels
// (hipcloud/internal/tlslite) alike. It supports Content-Length framing,
// persistent connections and Connection: close, which is all the RUBiS
// service, the reverse proxy and the workload generators need.
package microhttp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Limits protecting parsers from hostile input.
const (
	MaxHeaderBytes = 64 * 1024
	MaxBodyBytes   = 16 << 20
)

// Errors returned by the codec.
var (
	ErrMalformed = errors.New("microhttp: malformed message")
	ErrTooLarge  = errors.New("microhttp: message too large")
)

// Request is an HTTP request.
type Request struct {
	Method  string
	Path    string
	Headers map[string]string
	Body    []byte

	hdr []byte // serialized head, reused across writes of this request
}

// Response is an HTTP response.
type Response struct {
	Status  int
	Headers map[string]string
	Body    []byte

	hdr []byte // serialized head, reused across writes of this response
}

// Header returns a header value (case-insensitive key).
func header(h map[string]string, key string) string {
	for k, v := range h {
		if strings.EqualFold(k, key) {
			return v
		}
	}
	return ""
}

// Header returns a request header (case-insensitive).
func (r *Request) Header(key string) string { return header(r.Headers, key) }

// Header returns a response header (case-insensitive).
func (r *Response) Header(key string) string { return header(r.Headers, key) }

// WantsClose reports whether the message asked for Connection: close.
func (r *Request) WantsClose() bool {
	return strings.EqualFold(r.Header("Connection"), "close")
}

// WantsClose reports whether the response asked for Connection: close.
func (r *Response) WantsClose() bool {
	return strings.EqualFold(r.Header("Connection"), "close")
}

// statusText covers the codes the stack emits.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	}
	return "Status"
}

// WriteRequest serializes a request: the head in one Write, then the body
// in another.
func WriteRequest(w io.Writer, req *Request) error {
	b := append(req.hdr[:0], req.Method...)
	b = append(b, ' ')
	b = append(b, req.Path...)
	b = append(b, " HTTP/1.1\r\n"...)
	req.hdr = appendHeaders(b, req.Headers, len(req.Body))
	return writeMessage(w, req.hdr, req.Body)
}

// WriteResponse serializes a response: the head in one Write, then the
// body in another.
func WriteResponse(w io.Writer, resp *Response) error {
	b := append(resp.hdr[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(resp.Status), 10)
	b = append(b, ' ')
	b = append(b, statusText(resp.Status)...)
	b = append(b, "\r\n"...)
	resp.hdr = appendHeaders(b, resp.Headers, len(resp.Body))
	return writeMessage(w, resp.hdr, resp.Body)
}

func writeMessage(w io.Writer, head, body []byte) error {
	if _, err := w.Write(head); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// appendHeaders appends the header lines in key order, a Content-Length
// line unless h has one, and the blank line that ends the head.
func appendHeaders(b []byte, h map[string]string, bodyLen int) []byte {
	var arr [8]string
	keys := arr[:0]
	explicitLen := false
	for k := range h {
		if strings.EqualFold(k, "Content-Length") {
			explicitLen = true
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, ": "...)
		b = append(b, h[k]...)
		b = append(b, "\r\n"...)
	}
	if !explicitLen {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(bodyLen), 10)
		b = append(b, "\r\n"...)
	}
	return append(b, "\r\n"...)
}

// ReadRequest parses one request from br.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	req := new(Request)
	return req, ReadRequestInto(br, req)
}

// ReadRequestInto parses one request from br into req, reusing req's
// strings, header map and body array where it can: what req held before
// is valid only until this call.
func ReadRequestInto(br *bufio.Reader, req *Request) error {
	line, err := readLine(br)
	if err != nil {
		return err
	}
	method, rest, ok1 := bytes.Cut(line, space)
	path, proto, ok2 := bytes.Cut(rest, space)
	if !ok1 || !ok2 || !bytes.HasPrefix(proto, http1) {
		return ErrMalformed
	}
	req.Method = reuse(method, req.Method)
	req.Path = reuse(path, req.Path)
	if req.Headers, err = readHeaders(br, req.Headers); err != nil {
		return err
	}
	req.Body, err = readBody(br, req.Headers, req.Body)
	return err
}

// ReadResponse parses one response from br.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	resp := new(Response)
	return resp, ReadResponseInto(br, resp)
}

// ReadResponseInto parses one response from br into resp, reusing resp's
// header map and body array: what resp held before is valid only until
// this call.
func ReadResponseInto(br *bufio.Reader, resp *Response) error {
	line, err := readLine(br)
	if err != nil {
		return err
	}
	proto, rest, ok := bytes.Cut(line, space)
	code, _, _ := bytes.Cut(rest, space)
	if !ok || !bytes.HasPrefix(proto, http1) {
		return ErrMalformed
	}
	status, err := strconv.Atoi(string(code))
	if err != nil || status < 100 || status > 599 {
		return ErrMalformed
	}
	resp.Status = status
	if resp.Headers, err = readHeaders(br, resp.Headers); err != nil {
		return err
	}
	resp.Body, err = readBody(br, resp.Headers, resp.Body)
	return err
}

var (
	space = []byte(" ")
	http1 = []byte("HTTP/1.")
)

// reuse returns the string of old that spells b, or b as a new string.
func reuse(b []byte, old ...string) string {
	for _, s := range old {
		if s == string(b) {
			return s
		}
	}
	return string(b)
}

// readLine returns the next line without its end of line. It is valid
// until the next read from br.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, isPrefix, err := br.ReadLine()
	if err != nil {
		return nil, err
	}
	if len(line) > MaxHeaderBytes {
		return nil, ErrTooLarge
	}
	if !isPrefix {
		return line, nil
	}
	long := append([]byte(nil), line...)
	for isPrefix {
		if line, isPrefix, err = br.ReadLine(); err != nil {
			return nil, err
		}
		long = append(long, line...)
		if len(long) > MaxHeaderBytes {
			return nil, ErrTooLarge
		}
	}
	return long, nil
}

// readHeaders reads header lines into h, which it clears first (or makes,
// when nil). A name or value that h held before is reused, not allocated
// again.
func readHeaders(br *bufio.Reader, h map[string]string) (map[string]string, error) {
	var arr [16]string
	old := arr[:0]
	for k, v := range h {
		old = append(old, k, v)
	}
	if h == nil {
		h = make(map[string]string)
	}
	clear(h)
	total := 0
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			return h, nil
		}
		total += len(line)
		if total > MaxHeaderBytes {
			return nil, ErrTooLarge
		}
		idx := bytes.IndexByte(line, ':')
		if idx <= 0 {
			return nil, ErrMalformed
		}
		h[reuse(bytes.TrimSpace(line[:idx]), old...)] = reuse(bytes.TrimSpace(line[idx+1:]), old...)
	}
}

// readBody reads the Content-Length body into body's array. An array too
// short for it is replaced by one of twice its size, or of the body's
// size when that is more, so that bodies of varying size settle on one
// array after a growth or two.
func readBody(br *bufio.Reader, h map[string]string, body []byte) ([]byte, error) {
	cl := header(h, "Content-Length")
	if cl == "" {
		return body[:0], nil
	}
	n, err := strconv.Atoi(cl)
	if err != nil || n < 0 {
		return nil, ErrMalformed
	}
	if n > MaxBodyBytes {
		return nil, ErrTooLarge
	}
	if cap(body) < n {
		body = make([]byte, n, max(n, 2*cap(body)))
	}
	body = body[:n]
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// RoundTrip writes req and reads the response over rw (one in-flight
// request; persistent connections supported by repeated calls).
func RoundTrip(rw io.ReadWriter, br *bufio.Reader, req *Request) (*Response, error) {
	if err := WriteRequest(rw, req); err != nil {
		return nil, err
	}
	return ReadResponse(br)
}
