"""The load generator's own yardstick: a server with the transform
service's framing and no transform.

Driving it with the same client code gives ``loadgen.ceiling_vps``, the
rate above which a capacity figure says more about the generator than
about ``spl serve``.  Runs as its own process, like the real server.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal

from repro.serve.protocol import encode_frame, read_frame


async def _handle(reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            frame = await read_frame(reader)
            if frame is None:
                break
            header, payload = frame
            reply = {"status": "ok", "id": header.get("id"),
                     "n": header.get("n"), "dtype": header.get("dtype"),
                     "server_ms": 0.0}
            writer.write(encode_frame(reply, payload))
            await writer.drain()
    except ConnectionError:
        pass
    finally:
        writer.close()


async def _main(port_file: str) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    server = await asyncio.start_server(_handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    tmp = f"{port_file}.tmp"
    with open(tmp, "w") as handle:
        handle.write(f"{host}:{port}\n")
    os.replace(tmp, port_file)
    async with server:
        await stop.wait()


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--port-file", required=True)
    asyncio.run(_main(parser.parse_args().port_file))
