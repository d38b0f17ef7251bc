#!/bin/sh
# Stand-in for `fastc --serve` in the serve.fail_fast test: announces a port
# nothing listens on, then lingers like a server waiting for SIGTERM.  The
# sleep inherits stderr, so serve_check must kill the whole process group
# when its first check fails, or the test runner waits on the open pipe.
echo "fastc: serving on 127.0.0.1:1"
sleep 300
