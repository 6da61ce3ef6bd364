/* SF503 fixture (clean): each turbo entry re-checks every gate its
 * Python bailout target checks, itself or through its helpers, before
 * taking the fast path. */

static PyObject *bus_obj;
static PyObject *str_active;
static PyObject *str_tracer;
static PyObject *str_on_poke;
static PyObject *str_on_nudge;

static struct {
    PyObject **slot;
    const char *name;
} interns[] = {
    { &str_active, "active" },
    { &str_tracer, "tracer" },
    { &str_on_poke, "on_poke" },
    { &str_on_nudge, "on_nudge" },
};

static PyObject *
sfqc_fast_poke(PyObject *self, PyObject *args)
{
    PyObject *machine = PyTuple_GET_ITEM(args, 0);
    PyObject *hot = PyObject_GetAttr(bus_obj, str_active);
    if (hot == NULL)
        return NULL;
    int bail = PyObject_IsTrue(hot);
    Py_DECREF(hot);
    if (!bail) {
        PyObject *tracer = PyObject_GetAttr(machine, str_tracer);
        if (tracer == NULL)
            return NULL;
        bail = tracer != Py_None;
        Py_DECREF(tracer);
    }
    if (bail)
        return PyObject_CallMethodObjArgs(machine, str_on_poke, NULL);
    Py_RETURN_NONE;
}

static PyObject *
sfqc_fast_nudge(PyObject *self, PyObject *args)
{
    PyObject *machine = PyTuple_GET_ITEM(args, 0);
    PyObject *tracer = PyObject_GetAttr(machine, str_tracer);
    if (tracer == NULL)
        return NULL;
    int bail = tracer != Py_None;
    Py_DECREF(tracer);
    if (bail)
        return PyObject_CallMethodObjArgs(machine, str_on_nudge, NULL);
    Py_RETURN_NONE;
}

static PyMethodDef seam_methods[] = {
    {"fast_poke", (PyCFunction)sfqc_fast_poke, METH_VARARGS, "poke"},
    {"fast_nudge", (PyCFunction)sfqc_fast_nudge, METH_VARARGS, "nudge"},
    {NULL, NULL, 0, NULL}
};
