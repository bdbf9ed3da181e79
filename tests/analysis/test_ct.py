"""CT checker: taint seeding, propagation, sanitizers, scoping."""


def codes(report):
    return [f.code for f in report.findings]


def test_secret_branch_is_flagged(lint):
    report = lint("repro/pqc/fix.py", """
        def decaps(secret_key, ciphertext):
            if secret_key[0] == 1:
                return b"a"
            return b"b"
    """, select=["ct"])
    assert codes(report) == ["CT001"]
    assert "secret_key" in report.findings[0].message
    assert report.findings[0].symbol == "decaps"


def test_taint_propagates_through_assignment_and_while(lint):
    report = lint("repro/crypto/fix.py", """
        def derive(sk):
            acc = sk * 2
            masked = acc ^ 0xFF
            while masked > 0:
                masked -= 1
            return masked
    """, select=["ct"])
    assert codes(report) == ["CT001"]
    assert "'sk'" in report.findings[0].message


def test_secret_loop_bound_flagged(lint):
    report = lint("repro/pqc/fix.py", """
        def expand(seed):
            total = 0
            for i in range(seed % 7):
                total += i
            return total
    """, select=["ct"])
    assert codes(report) == ["CT002"]


def test_secret_subscript_flagged(lint):
    report = lint("repro/pqc/fix.py", """
        TABLE = list(range(256))

        def lookup(private_value, table):
            idx = private_value & 0xFF
            return table[idx]
    """, select=["ct"])
    assert codes(report) == ["CT003"]


def test_keygen_tuple_unpack_taints_only_secret_half(lint):
    report = lint("repro/pqc/fix.py", """
        def roundtrip(scheme, drbg, table):
            pk, sk = scheme.keygen(drbg)
            a = table[len(pk)]     # pk is public: fine
            if sk[0]:              # sk is secret: flagged
                a += 1
            return a
    """, select=["ct"])
    assert codes(report) == ["CT001"]


def test_decaps_result_is_tainted(lint):
    report = lint("repro/pqc/fix.py", """
        def session(kem, key, ct, table):
            shared = kem.decaps(key, ct)
            return table[shared[0]]
    """, select=["ct"])
    assert codes(report) == ["CT003"]


def test_len_and_declassify_sanitize(lint):
    report = lint("repro/pqc/fix.py", """
        from repro.crypto.constanttime import declassify

        def split(secret_key):
            if len(secret_key) < 4:        # length is public
                raise ValueError("short")
            n = declassify(int.from_bytes(secret_key[:4], "big"))
            return secret_key[4: 4 + n]    # declassified index
    """, select=["ct"])
    assert codes(report) == []


def test_sanitizer_on_attribute_projection_does_not_launder(lint):
    report = lint("repro/crypto/fix.py", """
        def split(sk):
            n, m = len(sk.x), declassify(sk.y)
            if m:
                return n
            return 0
    """, select=["ct"])
    assert codes(report) == ["CT001"]


def test_sanitizer_on_subscript_projection_does_not_launder(lint):
    report = lint("repro/crypto/fix.py", """
        def pick(sk):
            n = len(sk[2])
            if n:
                return 1
            return 0
    """, select=["ct"])
    assert codes(report) == ["CT001"]


def test_whole_keypair_binding_stays_secret_through_unpack(lint):
    report = lint("repro/pqc/fix.py", """
        def kp(scheme, drbg):
            keypair = scheme.keygen(drbg)
            pk, s = keypair
            if s:
                return 1
            return 0
    """, select=["ct"])
    assert codes(report) == ["CT001"]


def test_declassify_of_secret_subscript_in_while(lint):
    report = lint("repro/crypto/fix.py", """
        def drain(secret_key):
            m = declassify(secret_key[0])
            while m:
                m -= 1
            return m
    """, select=["ct"])
    assert codes(report) == ["CT001"]


def test_comprehension_target_subscript_flagged(lint):
    report = lint("repro/pqc/fix.py", """
        def compress_like(sk, table):
            return [table[x] for x in sk]
    """, select=["ct"])
    assert codes(report) == ["CT003"]


def test_comprehension_over_public_iterable_is_fine(lint):
    report = lint("repro/pqc/fix.py", """
        def decompress_like(values, table):
            return [table[v] for v in values]
    """, select=["ct"])
    assert codes(report) == []


def test_public_code_outside_crypto_scope_not_checked(lint):
    report = lint("repro/tls/fix.py", """
        def handle(secret_key):
            if secret_key[0]:
                return 1
            return 0
    """, select=["ct"])
    assert codes(report) == []


def test_clean_constant_time_fixture(lint):
    report = lint("repro/crypto/fix.py", """
        def ct_mul(sk, p):
            acc = 0
            for _ in range(256):          # public, fixed bound
                acc = (acc + sk) % p
            return acc
    """, select=["ct"])
    assert codes(report) == []


def test_pragma_allows_a_deliberate_branch(lint):
    report = lint("repro/crypto/fix.py", """
        def check(shared_secret):
            if shared_secret == b"\\x00" * 32:  # pqtls: allow[CT001]
                raise ValueError("low order")
            return shared_secret
    """, select=["ct"])
    assert codes(report) == []
    assert report.pragma_suppressed == 1


# CT001-003 run on the flow dataflow, so they are flow-sensitive: a
# public reassignment kills taint, a write into a container taints it,
# and a loop back edge still carries taint to the header.

def test_public_reassignment_kills_taint(lint):
    report = lint("repro/pqc/fix.py", """
        def wipe(sk):
            x = sk[0]
            x = 0
            if x:
                return 1
            return 0
    """, select=["ct"])
    assert codes(report) == []


def test_secret_write_taints_the_container(lint):
    report = lint("repro/pqc/fix.py", """
        def stash(sk):
            buf = [0]
            buf[0] = sk[0]
            if buf[0]:
                return 1
            return 0
    """, select=["ct"])
    assert codes(report) == ["CT001"]
    assert "'sk'" in report.findings[0].message


def test_loop_carried_taint_reaches_the_header(lint):
    report = lint("repro/pqc/fix.py", """
        def scan(sk, n):
            x = 0
            for i in range(n):
                if x:
                    return i
                x = sk[i]
            return -1
    """, select=["ct"])
    assert codes(report) == ["CT001"]
    assert report.findings[0].line == 5


def test_match_case_guard_is_a_branch(lint):
    report = lint("repro/pqc/fix.py", """
        def classify(sk, mode):
            match mode:
                case 1 if sk[0]:
                    return b"a"
                case 2 if mode > 1:
                    return b"b"
            match sk:
                case [first, *rest] if first:
                    return b"c"
                case [_, *rest] if (n := rest[0]):
                    return rest[n]
            return b"d"
    """, select=["ct"])
    found = [(f.code, f.line, f.message.split(" depends")[0])
             for f in report.findings]
    assert found == [
        ("CT001", 4, "`match` case guard"),      # secret guard
        ("CT001", 8, "`match` subject"),
        ("CT001", 9, "`match` case guard"),      # capture of a secret subject
        ("CT001", 11, "`match` case guard"),
        ("CT003", 12, "subscript index"),        # walrus bound in the guard
    ]
