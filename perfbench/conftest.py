"""Import magschro from this checkout's sources, with native threads pinned."""

from run import load_program

load_program()
