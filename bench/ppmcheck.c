/* ppmcheck: a C port of the toy PPM (P6) validator shipped with reachfuzz.
 *
 * It follows src/reachfuzz/toys/ppmcheck.py line for line, including the
 * trace protocol (one function name appended to $RF_TRACE_FILE per call)
 * and the forms Python accepts: bytes.split() and bytes.strip() treat
 * space, \t, \n, \r, \v and \f as whitespace, bytes.isdigit() accepts only
 * ASCII digits, and int() refuses more than 4300 digits with a ValueError,
 * which ends the toy with exit status 1 and no reject_input trace line.
 * Numbers of any length are compared exactly: a value at or above SAT only
 * ever makes width * height * 3 larger than any payload.
 *
 * Build: cc -O2 -o ppmcheck ppmcheck.c
 */
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#define INT_MAX_STR_DIGITS 4300
#define SAT 1000000000000ULL /* 1e12: any product with a factor this large exceeds a payload */

static void trace(const char *name)
{
    const char *path = getenv("RF_TRACE_FILE");
    if (path && *path) {
        FILE *fh = fopen(path, "a");
        if (fh) {
            fputs(name, fh);
            fputc('\n', fh);
            fclose(fh);
        }
    }
}

static void reject_input(const char *reason)
{
    trace("reject_input");
    fprintf(stderr, "ppmcheck: %s\n", reason);
    exit(1);
}

static int is_space(unsigned char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f';
}

static int is_digit(unsigned char c)
{
    return c >= '0' && c <= '9';
}

/* int() of an all-digit field; a field longer than Python's limit raises. */
static unsigned long long to_int(const unsigned char *s, size_t n)
{
    unsigned long long value = 0;
    if (n > INT_MAX_STR_DIGITS) {
        fprintf(stderr, "ValueError: Exceeds the limit (%d digits) for integer "
                        "string conversion\n", INT_MAX_STR_DIGITS);
        exit(1);
    }
    for (size_t i = 0; i < n; i++) {
        value = value * 10 + (unsigned long long)(s[i] - '0');
        if (value >= SAT)
            value = SAT;
    }
    return value;
}

static void read_pixels(unsigned long long width, unsigned long long height, size_t body_len)
{
    trace("read_pixels");
    if (width == 0 || height == 0)
        return;
    if (width >= SAT || height >= SAT ||
        (unsigned __int128)width * height * 3 > (unsigned __int128)body_len)
        kill(getpid(), SIGSEGV); /* overread past the payload buffer */
}

static void parse_dims(const unsigned char *data, size_t n)
{
    trace("parse_dims");
    const unsigned char *nl0 = memchr(data, '\n', n);
    const unsigned char *nl1 = nl0 ? memchr(nl0 + 1, '\n', n - (size_t)(nl0 + 1 - data)) : NULL;
    if (!nl1)
        reject_input("truncated dimension header");

    /* lines[0].split(): exactly two all-digit fields */
    const unsigned char *field[3] = {0};
    size_t field_len[3] = {0};
    int fields = 0;
    const unsigned char *p = data;
    while (p < nl0) {
        while (p < nl0 && is_space(*p))
            p++;
        if (p == nl0)
            break;
        const unsigned char *start = p;
        while (p < nl0 && !is_space(*p))
            p++;
        if (fields < 3) {
            field[fields] = start;
            field_len[fields] = (size_t)(p - start);
        }
        fields++;
    }
    int ok = fields == 2;
    for (int f = 0; ok && f < 2; f++)
        for (size_t i = 0; i < field_len[f]; i++)
            if (!is_digit(field[f][i]))
                ok = 0;
    if (!ok)
        reject_input("bad width/height line");

    /* lines[1].strip().isdigit() */
    const unsigned char *m = nl0 + 1, *mend = nl1;
    while (m < mend && is_space(*m))
        m++;
    while (mend > m && is_space(mend[-1]))
        mend--;
    if (m == mend)
        reject_input("bad maxval line");
    for (const unsigned char *q = m; q < mend; q++)
        if (!is_digit(*q))
            reject_input("bad maxval line");

    unsigned long long width = to_int(field[0], field_len[0]);
    unsigned long long height = to_int(field[1], field_len[1]);
    unsigned long long maxval = to_int(m, (size_t)(mend - m));
    if (maxval > 255)
        reject_input("unsupported component depth");
    read_pixels(width, height, n - (size_t)(nl1 + 1 - data));
}

static void parse_header(const unsigned char *data, size_t n)
{
    trace("parse_header");
    if (n < 3 || memcmp(data, "P6\n", 3) != 0)
        reject_input("not a raw PPM (P6) file");
    parse_dims(data + 3, n - 3);
}

int main(int argc, char **argv)
{
    trace("main");
    if (argc != 2)
        reject_input("expected exactly one input file");
    FILE *fh = fopen(argv[1], "rb");
    if (!fh)
        reject_input("cannot read input");
    size_t cap = 4096, n = 0, got;
    unsigned char *data = malloc(cap);
    while (data && (got = fread(data + n, 1, cap - n, fh)) > 0) {
        n += got;
        if (n == cap)
            data = realloc(data, cap *= 2);
    }
    fclose(fh);
    if (!data)
        reject_input("cannot read input: out of memory");
    parse_header(data, n);
    free(data);
    return 0;
}
