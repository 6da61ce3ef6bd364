/* SF503 fixture: the turbo entry bails out to PokeMachine.on_poke
 * (sf503_py.py) which checks BUS.active *and* self.tracer, but the C
 * fast path only re-checks the bus gate.  fast_nudge bails out to
 * on_nudge, whose tracer check sits in the helper it calls, and
 * re-checks nothing. */

static PyObject *bus_obj;
static PyObject *str_active;
static PyObject *str_on_poke;
static PyObject *str_on_nudge;

static struct {
    PyObject **slot;
    const char *name;
} interns[] = {
    { &str_active, "active" },
    { &str_on_poke, "on_poke" },
    { &str_on_nudge, "on_nudge" },
};

static PyObject *
sfqc_fast_poke(PyObject *self, PyObject *args)  /* EXPECT-SF503 */
{
    PyObject *machine = PyTuple_GET_ITEM(args, 0);
    PyObject *hot = PyObject_GetAttr(bus_obj, str_active);
    if (hot == NULL)
        return NULL;
    int bail = PyObject_IsTrue(hot);
    Py_DECREF(hot);
    if (bail)
        return PyObject_CallMethodObjArgs(machine, str_on_poke, NULL);
    Py_RETURN_NONE;
}

/* on_nudge checks the tracer only through its helper _observe */
static PyObject *
sfqc_fast_nudge(PyObject *self, PyObject *args)  /* EXPECT-SF503 */
{
    PyObject *machine = PyTuple_GET_ITEM(args, 0);
    return PyObject_CallMethodObjArgs(machine, str_on_nudge, NULL);
}

static PyMethodDef seam_methods[] = {
    {"fast_poke", (PyCFunction)sfqc_fast_poke, METH_VARARGS, "poke"},
    {"fast_nudge", (PyCFunction)sfqc_fast_nudge, METH_VARARGS, "nudge"},
    {NULL, NULL, 0, NULL}
};
