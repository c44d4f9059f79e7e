"""Straight-line keystream references for Grain-80 and Grain-128.

Deliberately independent of the package: plain lists, explicit tap
arithmetic, no shared code.  Used to pin the regression vectors and to
cross-check single steps of the engine.
"""


def grain80_feedbacks(b, s):
    """(LFSR feedback, NLFSR feedback, output z) for the current state."""
    f = s[62] ^ s[51] ^ s[38] ^ s[23] ^ s[13] ^ s[0]
    g = (
        s[0] ^ b[0] ^ b[62] ^ b[60] ^ b[52] ^ b[45] ^ b[37] ^ b[33] ^ b[28]
        ^ b[21] ^ b[14] ^ b[9]
        ^ (b[63] & b[60]) ^ (b[37] & b[33]) ^ (b[15] & b[9])
        ^ (b[60] & b[52] & b[45]) ^ (b[33] & b[28] & b[21])
        ^ (b[63] & b[45] & b[28] & b[9]) ^ (b[60] & b[52] & b[37] & b[33])
        ^ (b[63] & b[60] & b[21] & b[15])
        ^ (b[63] & b[60] & b[52] & b[45] & b[37])
        ^ (b[33] & b[28] & b[21] & b[15] & b[9])
        ^ (b[52] & b[45] & b[37] & b[33] & b[28] & b[21])
    )
    h = (
        s[25] ^ b[63] ^ (s[3] & s[64]) ^ (s[46] & s[64]) ^ (s[64] & b[63])
        ^ (s[3] & s[25] & s[46]) ^ (s[3] & s[46] & s[64])
        ^ (s[3] & s[46] & b[63]) ^ (s[25] & s[46] & b[63])
        ^ (s[46] & s[64] & b[63])
    )
    z = b[1] ^ b[2] ^ b[4] ^ b[10] ^ b[31] ^ b[43] ^ b[56] ^ h
    return f, g, z


def grain80_keystream(key_bits, iv_bits, nbits):
    b = list(key_bits)
    s = list(iv_bits) + [1] * 16
    assert len(b) == 80 and len(s) == 80
    for _ in range(160):
        f, g, z = grain80_feedbacks(b, s)
        b = b[1:] + [g ^ z]
        s = s[1:] + [f ^ z]
    out = []
    for _ in range(nbits):
        f, g, z = grain80_feedbacks(b, s)
        out.append(z)
        b = b[1:] + [g]
        s = s[1:] + [f]
    return out


def grain128_feedbacks(b, s):
    f = s[0] ^ s[7] ^ s[38] ^ s[70] ^ s[81] ^ s[96]
    g = (
        s[0] ^ b[0] ^ b[26] ^ b[56] ^ b[91] ^ b[96]
        ^ (b[3] & b[67]) ^ (b[11] & b[13]) ^ (b[17] & b[18])
        ^ (b[27] & b[59]) ^ (b[40] & b[48]) ^ (b[61] & b[65])
        ^ (b[68] & b[84])
    )
    h = (
        (b[12] & s[8]) ^ (s[13] & s[20]) ^ (b[95] & s[42])
        ^ (s[60] & s[79]) ^ (b[12] & b[95] & s[95])
    )
    z = b[2] ^ b[15] ^ b[36] ^ b[45] ^ b[64] ^ b[73] ^ b[89] ^ s[93] ^ h
    return f, g, z


def grain128_keystream(key_bits, iv_bits, nbits):
    b = list(key_bits)
    s = list(iv_bits) + [1] * 32
    assert len(b) == 128 and len(s) == 128
    for _ in range(256):
        f, g, z = grain128_feedbacks(b, s)
        b = b[1:] + [g ^ z]
        s = s[1:] + [f ^ z]
    out = []
    for _ in range(nbits):
        f, g, z = grain128_feedbacks(b, s)
        out.append(z)
        b = b[1:] + [g]
        s = s[1:] + [f]
    return out
