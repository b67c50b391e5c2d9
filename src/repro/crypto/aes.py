"""AES-128 block cipher from scratch (FIPS 197).

Table-driven implementation. At import, 255 ``xtime`` steps walk the
powers of the generator 3 to fill exp/log tables over GF(2^8); the
S-boxes come from the inverses they give (``x^-1 = 3^(255 - log x)``)
and the FIPS 197 affine transform, and MixColumns/InvMixColumns read
six 256-entry multiply tables (x2, x3, x9, x11, x13, x14) built from
the same exp/log tables. The construction is generated rather than
hard-coded so it stays visible; the tests check every table against a
brute-force GF(2^8) reference. Used by the CBC record cipher in
:mod:`repro.crypto.modes` and by GCM.
"""

from __future__ import annotations

__all__ = ["AES128", "BLOCK_SIZE"]

BLOCK_SIZE = 16


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _build_exp_log() -> tuple:
    # 3 generates the multiplicative group: 3 * x == x ^ xtime(x).
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= _xtime(x)
    return tuple(exp), tuple(log)


_EXP, _LOG = _build_exp_log()


def _mul_table(c: int) -> tuple:
    """``c * a`` in GF(2^8) for every byte ``a``."""
    lc = _LOG[c]
    return (0,) + tuple(_EXP[(_LOG[a] + lc) % 255] for a in range(1, 256))


def _build_sbox() -> tuple:
    # Multiplicative inverse in GF(2^8) followed by the affine transform.
    inv = [0] + [_EXP[-_LOG[x] % 255] for x in range(1, 256)]
    sbox = [0] * 256
    for x in range(256):
        b = inv[x]
        res = 0
        for i in range(8):
            bit = ((b >> i) & 1) ^ ((b >> ((i + 4) % 8)) & 1) \
                ^ ((b >> ((i + 5) % 8)) & 1) ^ ((b >> ((i + 6) % 8)) & 1) \
                ^ ((b >> ((i + 7) % 8)) & 1) ^ ((0x63 >> i) & 1)
            res |= bit << i
        sbox[x] = res
    inv_sbox = [0] * 256
    for i, v in enumerate(sbox):
        inv_sbox[v] = i
    return tuple(sbox), tuple(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()
_MUL2, _MUL3, _MUL9, _MUL11, _MUL13, _MUL14 = (
    _mul_table(c) for c in (2, 3, 9, 11, 13, 14))
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


class AES128:
    """AES with a 128-bit key; encrypts/decrypts single 16-byte blocks."""

    rounds = 10

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("AES-128 requires a 16-byte key")
        self._round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> list:
        words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 4 * (AES128.rounds + 1)):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]                 # RotWord
                temp = [_SBOX[b] for b in temp]            # SubWord
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([words[i - 4][j] ^ temp[j] for j in range(4)])
        # Group into 16-byte round keys (column-major state layout).
        return [sum((words[4 * r + c] for c in range(4)), [])
                for r in range(AES128.rounds + 1)]

    # -- state helpers (state[c][r]: column-major like the key schedule) --

    @staticmethod
    def _add_round_key(state: list, rk: list) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: list, box) -> None:
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _shift_rows(state: list) -> list:
        # state index = 4*col + row
        out = [0] * 16
        for r in range(4):
            for c in range(4):
                out[4 * c + r] = state[4 * ((c + r) % 4) + r]
        return out

    @staticmethod
    def _inv_shift_rows(state: list) -> list:
        out = [0] * 16
        for r in range(4):
            for c in range(4):
                out[4 * ((c + r) % 4) + r] = state[4 * c + r]
        return out

    @staticmethod
    def _mix_columns(state: list) -> list:
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c:c + 4]
            out[c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            out[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            out[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            out[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
        return out

    @staticmethod
    def _inv_mix_columns(state: list) -> list:
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c:c + 4]
            out[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out

    # -- block operations ---------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError("block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for rnd in range(1, self.rounds):
            self._sub_bytes(state, _SBOX)
            state = self._shift_rows(state)
            state = self._mix_columns(state)
            self._add_round_key(state, self._round_keys[rnd])
        self._sub_bytes(state, _SBOX)
        state = self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.rounds])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError("block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, self._round_keys[self.rounds])
        for rnd in range(self.rounds - 1, 0, -1):
            state = self._inv_shift_rows(state)
            self._sub_bytes(state, _INV_SBOX)
            self._add_round_key(state, self._round_keys[rnd])
            state = self._inv_mix_columns(state)
        state = self._inv_shift_rows(state)
        self._sub_bytes(state, _INV_SBOX)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)
