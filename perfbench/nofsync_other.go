//go:build !(linux && amd64)

package main

import "errors"

func noopFsync() error {
	return errors.New("no-op fsync needs linux/amd64 seccomp")
}
