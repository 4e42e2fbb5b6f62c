package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
)

// The HTTP codec of both hops: internal/server answers with it and
// internal/cluster's gateway answers with it, so a request decodes and
// an answer encodes the same way at either hop. The gateway relays a
// backend's answer bytes unchanged, which is correct because both hops
// encode with this one WriteJSON.

// StatusWriter captures the status code a handler writes (and whether
// anything was written at all) so the instrumentation can label the
// request's series with it and the panic containment knows whether a
// JSON 500 can still be sent.
type StatusWriter struct {
	http.ResponseWriter
	Code  int
	Wrote bool
}

func (w *StatusWriter) WriteHeader(code int) {
	w.Code = code
	w.Wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(p []byte) (int, error) {
	w.Wrote = true
	return w.ResponseWriter.Write(p)
}

// DecodeJSON reads a request body capped at maxBytes and decodes it
// into dst (ReadBody, then DecodeBody).
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) *Error {
	body, apiErr := ReadBody(w, r, maxBytes)
	if apiErr != nil {
		return apiErr
	}
	return DecodeBody(body, dst)
}

// ReadBody reads a request body whole, capped at maxBytes: 413 past the
// cap, 400 when the read itself fails.
func ReadBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, *Error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBytes {
		// The spare MinRead keeps the final read, which finds EOF, from
		// doubling a buffer the body filled exactly.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBytes)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, Errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, Errorf(http.StatusBadRequest, "decoding request: %v", err)
	}
	return buf.Bytes(), nil
}

// DecodeBody decodes the JSON value body holds into dst, refusing
// unknown fields and anything but whitespace after the value. A zero
// *SolveRequest goes through the schema decoder (decode.go) first, and
// through encoding/json only when the body is outside what that
// handles; either way it decodes the same.
func DecodeBody(body []byte, dst any) *Error {
	if req, ok := dst.(*SolveRequest); ok && reflect.ValueOf(req).Elem().IsZero() {
		var fast SolveRequest
		if decodeSolveRequest(body, &fast) {
			*req = fast
			return nil
		}
	}
	return decodeJSON(body, dst)
}

// decodeJSON is DecodeBody through encoding/json.
func decodeJSON(body []byte, dst any) *Error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return Errorf(http.StatusBadRequest, "decoding request: %v", err)
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return Errorf(http.StatusBadRequest, "decoding request: invalid character %q after top-level value", rest[0])
	}
	return nil
}

// WriteError renders an API error, mirroring any retry advice into the
// standard Retry-After header (delay-seconds form) so plain HTTP
// clients and proxies see it without parsing the JSON body.
func WriteError(w http.ResponseWriter, apiErr *Error) {
	if apiErr.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", apiErr.RetryAfterSeconds))
	}
	WriteJSON(w, apiErr.Code, apiErr)
}

// WriteJSON writes body as indented JSON with the given status code.
func WriteJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}
